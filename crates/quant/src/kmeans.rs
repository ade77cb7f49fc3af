//! Lloyd's k-means with k-means++ seeding and parallel assignment.

use sann_core::cast;
use sann_core::distance::{l2_squared, l2_squared_columns};
use sann_core::rng::SplitMix64;
use sann_core::{Dataset, Error, Result};

/// K-means trainer configuration.
///
/// # Examples
///
/// ```
/// use sann_quant::KMeans;
/// use sann_datagen::EmbeddingModel;
///
/// let data = EmbeddingModel::new(16, 4, 7).generate(400);
/// let model = KMeans::new(4).with_max_iters(10).fit(&data)?;
/// assert_eq!(model.centroids.len(), 4);
/// assert_eq!(model.assignments.len(), 400);
/// # Ok::<(), sann_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct KMeans {
    k: usize,
    max_iters: usize,
    seed: u64,
    sample_limit: usize,
}

impl KMeans {
    /// Creates a trainer for `k` clusters.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        KMeans {
            k,
            max_iters: 20,
            seed: 0x5EED_4B4B,
            sample_limit: usize::MAX,
        }
    }

    /// Sets the maximum number of Lloyd iterations (default 20).
    pub fn with_max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }

    /// Sets the RNG seed used for k-means++ seeding.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Trains on at most `limit` sampled rows (assignments are still computed
    /// for every row afterwards). Use this to cap training cost on large
    /// datasets.
    pub fn with_sample_limit(mut self, limit: usize) -> Self {
        self.sample_limit = limit.max(1);
        self
    }

    /// Runs k-means on `data`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `data` has fewer rows than
    /// `k`, and [`Error::Empty`] when `data` is empty.
    pub fn fit(&self, data: &Dataset) -> Result<KMeansModel> {
        if data.is_empty() {
            return Err(Error::Empty("dataset"));
        }
        if data.len() < self.k {
            return Err(Error::invalid_parameter(
                "k",
                format!(
                    "{} clusters requested but only {} vectors",
                    self.k,
                    data.len()
                ),
            ));
        }
        let mut rng = SplitMix64::new(self.seed);

        // Train on a sample when the dataset is large.
        let train: Dataset = if data.len() > self.sample_limit {
            let idx = rng.sample_indices(data.len(), self.sample_limit);
            let mut sample = Dataset::with_dim(data.dim());
            for i in idx {
                sample.push(data.row(i)).expect("same dim");
            }
            sample
        } else {
            data.clone()
        };

        let mut centroids = kmeanspp_init(&train, self.k, &mut rng);
        let mut assignments = vec![0u32; train.len()];
        for _ in 0..self.max_iters {
            let changed = assign_parallel(&train, &centroids, self.k, &mut assignments);
            recompute_centroids(&train, &assignments, self.k, &mut centroids, &mut rng);
            if changed == 0 {
                break;
            }
        }

        // Final assignment over the full dataset.
        let mut full_assignments = vec![0u32; data.len()];
        assign_parallel(data, &centroids, self.k, &mut full_assignments);

        Ok(KMeansModel {
            centroids: Dataset::from_flat(centroids, data.dim()).expect("rectangular"),
            assignments: full_assignments,
        })
    }
}

/// The result of k-means training.
#[derive(Debug, Clone)]
pub struct KMeansModel {
    /// One centroid per cluster (`k × dim`).
    pub centroids: Dataset,
    /// Cluster id of every input row.
    pub assignments: Vec<u32>,
}

impl KMeansModel {
    /// Id of the centroid closest to `v`.
    pub fn nearest(&self, v: &[f32]) -> u32 {
        nearest_centroid(
            v,
            self.centroids.as_flat(),
            self.centroids.len(),
            self.centroids.dim(),
        )
    }

    /// Ids of the `n` centroids closest to `v`, closest first.
    pub fn nearest_n(&self, v: &[f32], n: usize) -> Vec<u32> {
        let mut topk = sann_core::TopK::new(n.max(1).min(self.centroids.len()));
        for (c, row) in self.centroids.iter().enumerate() {
            topk.push(c as u32, l2_squared(v, row));
        }
        topk.into_sorted_vec().into_iter().map(|nb| nb.id).collect()
    }

    /// Total within-cluster sum of squared distances over `data`.
    pub fn inertia(&self, data: &Dataset) -> f64 {
        data.iter()
            .zip(&self.assignments)
            .map(|(row, &a)| l2_squared(row, self.centroids.row(a as usize)) as f64)
            .sum()
    }

    /// Appends the canonical little-endian encoding (centroids, then the
    /// assignment vector) to `buf`.
    pub fn encode_into(&self, buf: &mut sann_core::buf::ByteWriter) {
        self.centroids.encode_into(buf);
        buf.put_u64_le(self.assignments.len() as u64);
        for &a in &self.assignments {
            buf.put_u32_le(a);
        }
    }

    /// Reads a model previously written by [`KMeansModel::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on truncation or an out-of-range
    /// assignment.
    pub fn decode_from(r: &mut sann_core::buf::ByteReader<'_>) -> Result<KMeansModel> {
        let centroids = Dataset::decode_from(r)?;
        let n = r.get_u64_le()? as usize;
        if r.remaining() < n.saturating_mul(4) {
            return Err(Error::Corrupt("kmeans: truncated assignments".into()));
        }
        let k = centroids.len() as u32;
        let mut assignments = Vec::with_capacity(n);
        for _ in 0..n {
            let a = r.get_u32_le()?;
            if a >= k {
                return Err(Error::Corrupt("kmeans: assignment out of range".into()));
            }
            assignments.push(a);
        }
        Ok(KMeansModel {
            centroids,
            assignments,
        })
    }
}

fn nearest_centroid(v: &[f32], centroids: &[f32], k: usize, dim: usize) -> u32 {
    let mut best = 0u32;
    let mut best_d = f32::INFINITY;
    for c in 0..k {
        let d = l2_squared(v, &centroids[c * dim..(c + 1) * dim]);
        if d < best_d {
            best_d = d;
            best = c as u32;
        }
    }
    best
}

/// k-means++ seeding (Arthur & Vassilvitskii, SODA 2007).
fn kmeanspp_init(data: &Dataset, k: usize, rng: &mut SplitMix64) -> Vec<f32> {
    let dim = data.dim();
    let mut centroids = Vec::with_capacity(k * dim);
    let first = rng.next_bounded(data.len() as u64) as usize;
    centroids.extend_from_slice(data.row(first));

    let mut min_dist: Vec<f32> = data
        .iter()
        .map(|row| l2_squared(row, data.row(first)))
        .collect();
    for _ in 1..k {
        let total: f64 = min_dist.iter().map(|&d| d as f64).sum();
        let next = if total <= 0.0 {
            // All remaining points coincide with a centroid; pick uniformly.
            rng.next_bounded(data.len() as u64) as usize
        } else {
            let mut target = rng.next_f64() * total;
            let mut chosen = data.len() - 1;
            for (i, &d) in min_dist.iter().enumerate() {
                target -= d as f64;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        let start = centroids.len();
        centroids.extend_from_slice(data.row(next));
        let new_c = centroids[start..].to_vec();
        for (i, row) in data.iter().enumerate() {
            let d = l2_squared(row, &new_c);
            if d < min_dist[i] {
                min_dist[i] = d;
            }
        }
    }
    centroids
}

/// Assigns every row to its nearest centroid in parallel; returns the number
/// of rows whose assignment changed.
///
/// The centroids are transposed to dimension-major order once per call (one
/// Lloyd iteration), so each row is scored against all `k` of them by one
/// [`l2_squared_columns`] batch.
fn assign_parallel(data: &Dataset, centroids: &[f32], k: usize, assignments: &mut [u32]) -> usize {
    let cols = transpose(centroids, k, data.dim());
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let chunk = data.len().div_ceil(threads.max(1)).max(1);
    let changed = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for (t, out_chunk) in assignments.chunks_mut(chunk).enumerate() {
            let (changed, cols) = (&changed, &cols);
            scope.spawn(move || {
                let (mut dists, mut lanes) = (vec![0.0f32; k], vec![0.0f32; 4 * k]);
                let rows = data.iter().skip(t * chunk);
                let local = assign_rows(rows, cols, out_chunk, &mut dists, &mut lanes);
                changed.fetch_add(local, std::sync::atomic::Ordering::Relaxed);
            });
        }
    });
    changed.load(std::sync::atomic::Ordering::Relaxed)
}

/// Writes the nearest of the `k = dists.len()` dimension-major centroids
/// `cols` for each row into its `slots` entry; returns how many changed.
/// Ties go to the lowest centroid id (strict `<` in ascending order).
fn assign_rows<'a>(
    rows: impl Iterator<Item = &'a [f32]>,
    cols: &[f32],
    slots: &mut [u32],
    dists: &mut [f32],
    lanes: &mut [f32],
) -> usize {
    let mut changed = 0usize;
    for (slot, row) in slots.iter_mut().zip(rows) {
        l2_squared_columns(row, cols, dists.len(), dists, lanes);
        let best = cast::u32_from_usize(argmin(dists));
        if *slot != best {
            *slot = best;
            changed += 1;
        }
    }
    changed
}

/// Index of the first minimum of `dists` (strict `<`, ascending), or 0
/// when every entry is NaN or `dists` is empty.
pub(crate) fn argmin(dists: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for (c, &d) in dists.iter().enumerate() {
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// Transposes `k` row-major `dim`-vectors to dimension-major order:
/// component `j` of vector `c` moves to `j * k + c`.
pub(crate) fn transpose(rows: &[f32], k: usize, dim: usize) -> Vec<f32> {
    let mut cols = vec![0.0f32; rows.len()];
    for (c, row) in rows.chunks_exact(dim.max(1)).enumerate() {
        for (j, &x) in row.iter().enumerate() {
            cols[j * k + c] = x;
        }
    }
    cols
}

fn recompute_centroids(
    data: &Dataset,
    assignments: &[u32],
    k: usize,
    centroids: &mut [f32],
    rng: &mut SplitMix64,
) {
    let dim = data.dim();
    let mut counts = vec![0u64; k];
    centroids.fill(0.0);
    for (row, &a) in data.iter().zip(assignments) {
        let c = a as usize;
        counts[c] += 1;
        for (acc, &x) in centroids[c * dim..(c + 1) * dim].iter_mut().zip(row) {
            *acc += x;
        }
    }
    for c in 0..k {
        if counts[c] == 0 {
            // Re-seed an empty cluster at a random data point so k survives.
            let i = rng.next_bounded(data.len() as u64) as usize;
            centroids[c * dim..(c + 1) * dim].copy_from_slice(data.row(i));
        } else {
            let inv = 1.0 / counts[c] as f32;
            for x in centroids[c * dim..(c + 1) * dim].iter_mut() {
                *x *= inv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs(n_per: usize) -> Dataset {
        let mut rng = SplitMix64::new(99);
        let mut rows = Vec::new();
        for _ in 0..n_per {
            rows.push(vec![
                10.0 + rng.next_f32() * 0.1,
                10.0 + rng.next_f32() * 0.1,
            ]);
        }
        for _ in 0..n_per {
            rows.push(vec![
                -10.0 + rng.next_f32() * 0.1,
                -10.0 + rng.next_f32() * 0.1,
            ]);
        }
        Dataset::from_rows(rows).unwrap()
    }

    #[test]
    fn separates_two_blobs() {
        let data = two_blobs(50);
        let model = KMeans::new(2).with_seed(1).fit(&data).unwrap();
        // All of the first blob maps to one cluster, all of the second to the other.
        let first = model.assignments[0];
        assert!(model.assignments[..50].iter().all(|&a| a == first));
        assert!(model.assignments[50..].iter().all(|&a| a != first));
    }

    #[test]
    fn inertia_decreases_vs_random_centroid() {
        let data = two_blobs(50);
        let model = KMeans::new(2).fit(&data).unwrap();
        // Tight blobs: inertia per point must be tiny compared with blob distance.
        assert!(model.inertia(&data) / 100.0 < 1.0);
    }

    #[test]
    fn rejects_k_larger_than_n() {
        let data = two_blobs(1);
        assert!(KMeans::new(5).fit(&data).is_err());
    }

    #[test]
    fn rejects_empty() {
        let data = Dataset::with_dim(4);
        assert!(matches!(KMeans::new(1).fit(&data), Err(Error::Empty(_))));
    }

    #[test]
    fn deterministic_given_seed() {
        let data = two_blobs(30);
        let a = KMeans::new(2).with_seed(5).fit(&data).unwrap();
        let b = KMeans::new(2).with_seed(5).fit(&data).unwrap();
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn nearest_n_returns_sorted_prefix() {
        let data = two_blobs(30);
        let model = KMeans::new(2).fit(&data).unwrap();
        let near = model.nearest_n(&[10.0, 10.0], 2);
        assert_eq!(near.len(), 2);
        assert_eq!(near[0], model.nearest(&[10.0, 10.0]));
    }

    #[test]
    fn sample_limit_still_assigns_everything() {
        let data = two_blobs(200);
        let model = KMeans::new(2).with_sample_limit(40).fit(&data).unwrap();
        assert_eq!(model.assignments.len(), 400);
        let first = model.assignments[0];
        assert!(model.assignments[..200].iter().all(|&a| a == first));
    }

    #[test]
    fn codec_round_trips_bit_exact() {
        let data = two_blobs(30);
        let model = KMeans::new(2).with_seed(5).fit(&data).unwrap();
        let mut w = sann_core::buf::ByteWriter::new();
        model.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = sann_core::buf::ByteReader::new(&bytes, "test");
        let back = KMeansModel::decode_from(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(back.centroids, model.centroids);
        assert_eq!(back.assignments, model.assignments);
        let mut w2 = sann_core::buf::ByteWriter::new();
        back.encode_into(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn codec_rejects_truncation_and_bad_assignment() {
        let data = two_blobs(10);
        let model = KMeans::new(2).fit(&data).unwrap();
        let mut w = sann_core::buf::ByteWriter::new();
        model.encode_into(&mut w);
        let mut bytes = w.into_bytes();
        let mut r = sann_core::buf::ByteReader::new(&bytes[..bytes.len() - 2], "test");
        assert!(KMeansModel::decode_from(&mut r).is_err());
        // Corrupt the last assignment to an out-of-range cluster id.
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&99u32.to_le_bytes());
        let mut r = sann_core::buf::ByteReader::new(&bytes, "test");
        assert!(KMeansModel::decode_from(&mut r).is_err());
    }

    /// `fit`'s Lloyd loop with the row-major assignment it replaced: one
    /// `l2_squared` per (row, centroid), strict `<` in ascending order.
    fn fit_row_major(data: &Dataset, k: usize, iters: usize, seed: u64) -> (Vec<f32>, Vec<u32>) {
        let assign = |centroids: &[f32], assignments: &mut [u32]| {
            let mut changed = 0;
            for (slot, row) in assignments.iter_mut().zip(data.iter()) {
                let best = nearest_centroid(row, centroids, k, data.dim());
                changed += usize::from(*slot != best);
                *slot = best;
            }
            changed
        };
        let mut rng = SplitMix64::new(seed);
        let mut centroids = kmeanspp_init(data, k, &mut rng);
        let mut assignments = vec![0u32; data.len()];
        for _ in 0..iters {
            let changed = assign(&centroids, &mut assignments);
            recompute_centroids(data, &assignments, k, &mut centroids, &mut rng);
            if changed == 0 {
                break;
            }
        }
        let mut full = vec![0u32; data.len()];
        assign(&centroids, &mut full);
        (centroids, full)
    }

    #[test]
    fn batch_assignment_matches_row_major_reference() {
        let spread = sann_datagen::EmbeddingModel::new(19, 6, 3).generate(500);
        // Small integer coordinates: many exact distance ties.
        let mut rng = SplitMix64::new(4);
        let ties = Dataset::from_rows(
            (0..300)
                .map(|_| (0..5).map(|_| rng.next_bounded(3) as f32).collect())
                .collect::<Vec<Vec<f32>>>(),
        )
        .unwrap();
        for (data, k) in [(&spread, 16), (&spread, 3), (&ties, 7)] {
            let model = KMeans::new(k)
                .with_seed(9)
                .with_max_iters(12)
                .fit(data)
                .unwrap();
            let (centroids, assignments) = fit_row_major(data, k, 12, 9);
            assert_eq!(model.assignments, assignments, "k={k}");
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(model.centroids.as_flat()), bits(&centroids), "k={k}");
        }
    }

    #[test]
    fn duplicate_points_do_not_crash() {
        // All points identical: k-means++ falls back to uniform picks and
        // empty clusters are reseeded.
        let rows = vec![vec![1.0, 1.0]; 20];
        let data = Dataset::from_rows(rows).unwrap();
        let model = KMeans::new(3).fit(&data).unwrap();
        assert_eq!(model.centroids.len(), 3);
    }
}
