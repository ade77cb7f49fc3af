//! Distance metrics and their kernels.
//!
//! All kernels operate on plain `&[f32]` slices; this is the hot path of
//! every index in the workspace.
//!
//! # Lane-order contract
//!
//! [`l2_squared`] and [`dot`] sum in a fixed order that is part of their
//! output: four lane accumulators, lane `l` adding the terms of dimensions
//! `j ≡ l (mod 4)` below the last multiple of four in increasing `j`, a
//! scalar tail for the remaining dimensions, and the result
//! `((((s0 + s1) + s2) + s3) + tail)`. Rust never contracts a multiply and
//! an add into an FMA, so the result is bit-identical on every target and
//! at every optimization level. The four-lane accumulator is one SIMD
//! register wide, which is what lets the compiler vectorize the loop without
//! reassociating it.
//!
//! [`l2_squared_columns`] computes the same sums for a block of vectors
//! stored dimension-major, vectorizing across the vectors instead of along
//! them; each of its outputs is bit-identical to the row kernel's.

/// A vector distance metric.
///
/// All three metrics are expressed as *distances* (lower is closer) so that
/// top-k collection logic is uniform:
///
/// * [`Metric::L2`] is the **squared** Euclidean distance (monotonic in the
///   true Euclidean distance, cheaper to compute — the convention used by
///   faiss and DiskANN),
/// * [`Metric::InnerProduct`] is the negated dot product,
/// * [`Metric::Cosine`] is `1 - cosine_similarity`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Metric {
    /// Squared Euclidean distance.
    L2,
    /// Negated inner product (maximum inner product search).
    InnerProduct,
    /// Cosine distance, `1 - cos(a, b)`.
    Cosine,
}

impl Metric {
    /// Computes the distance between two vectors.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the slices have different lengths.
    #[inline]
    pub fn distance(&self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len(), "distance between mismatched dims");
        match self {
            Metric::L2 => l2_squared(a, b),
            Metric::InnerProduct => -dot(a, b),
            Metric::Cosine => cosine_distance(a, b),
        }
    }

    /// A short lowercase name, as used in configuration files and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::L2 => "l2",
            Metric::InnerProduct => "ip",
            Metric::Cosine => "cosine",
        }
    }

    /// Parses a metric from its [`name`](Metric::name).
    pub fn parse(name: &str) -> Option<Metric> {
        match name {
            "l2" => Some(Metric::L2),
            "ip" => Some(Metric::InnerProduct),
            "cosine" => Some(Metric::Cosine),
            _ => None,
        }
    }

    /// The single-byte wire tag used by every binary codec in the workspace
    /// (collection snapshots, index artifacts, cache keys).
    pub fn tag(&self) -> u8 {
        match self {
            Metric::L2 => 0,
            Metric::InnerProduct => 1,
            Metric::Cosine => 2,
        }
    }

    /// Inverse of [`Metric::tag`].
    pub fn from_tag(tag: u8) -> Option<Metric> {
        match tag {
            0 => Some(Metric::L2),
            1 => Some(Metric::InnerProduct),
            2 => Some(Metric::Cosine),
            _ => None,
        }
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Squared Euclidean distance between `a` and `b`, summed in the
/// [lane order](self#lane-order-contract).
///
/// # Examples
///
/// ```
/// let d = sann_core::distance::l2_squared(&[0.0, 0.0], &[3.0, 4.0]);
/// assert_eq!(d, 25.0);
/// ```
#[inline]
pub fn l2_squared(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (ac, at) = a.split_at(n).0.as_chunks::<4>();
    let (bc, bt) = b.split_at(n).0.as_chunks::<4>();
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for (&[x0, x1, x2, x3], &[y0, y1, y2, y3]) in ac.iter().zip(bc) {
        let (d0, d1, d2, d3) = (x0 - y0, x1 - y1, x2 - y2, x3 - y3);
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
    }
    let mut tail = 0.0f32;
    for (&x, &y) in at.iter().zip(bt) {
        let d = x - y;
        tail += d * d;
    }
    s0 + s1 + s2 + s3 + tail
}

/// Dot product of `a` and `b`, summed in the
/// [lane order](self#lane-order-contract).
///
/// # Examples
///
/// ```
/// let d = sann_core::distance::dot(&[1.0, 2.0], &[3.0, 4.0]);
/// assert_eq!(d, 11.0);
/// ```
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (ac, at) = a.split_at(n).0.as_chunks::<4>();
    let (bc, bt) = b.split_at(n).0.as_chunks::<4>();
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for (&[x0, x1, x2, x3], &[y0, y1, y2, y3]) in ac.iter().zip(bc) {
        s0 += x0 * y0;
        s1 += x1 * y1;
        s2 += x2 * y2;
        s3 += x3 * y3;
    }
    let mut tail = 0.0f32;
    for (&x, &y) in at.iter().zip(bt) {
        tail += x * y;
    }
    s0 + s1 + s2 + s3 + tail
}

/// Squared Euclidean distances from `v` to `k` vectors stored
/// dimension-major: component `j` of vector `c` is `cols[j * k + c]`.
///
/// Writes `out[c]`, bit-identical to `l2_squared(v, vector_c)`: four lane
/// sums per vector (lane `j % 4` takes dimension `j` below the last multiple
/// of four) and a tail, accumulated over the same dimensions in the same
/// order and combined as the row kernel combines them. The inner loops run
/// across the `k` vectors, which is what vectorizes — the batch form k-means
/// assignment, PQ encoding and PQ distance tables share. `out` is `k` long;
/// `lanes` is caller scratch for the four lane sums, `4 * k` long.
///
/// # Examples
///
/// ```
/// use sann_core::distance::{l2_squared, l2_squared_columns};
///
/// // Two 3-d vectors, (1, 2, 3) and (4, 5, 6), stored dimension-major.
/// let cols = [1.0, 4.0, 2.0, 5.0, 3.0, 6.0];
/// let (mut out, mut lanes) = ([0.0; 2], [0.0; 8]);
/// l2_squared_columns(&[0.0, 1.0, 2.0], &cols, 2, &mut out, &mut lanes);
/// assert_eq!(out[0], l2_squared(&[0.0, 1.0, 2.0], &[1.0, 2.0, 3.0]));
/// assert_eq!(out[1], l2_squared(&[0.0, 1.0, 2.0], &[4.0, 5.0, 6.0]));
/// ```
pub fn l2_squared_columns(v: &[f32], cols: &[f32], k: usize, out: &mut [f32], lanes: &mut [f32]) {
    debug_assert_eq!(cols.len(), v.len() * k, "cols must be dim × k");
    debug_assert_eq!(out.len(), k, "out must hold k sums");
    debug_assert_eq!(lanes.len(), 4 * k, "lanes must hold 4 × k sums");
    if k == 0 {
        return;
    }
    let full = v.len() - v.len() % 4;
    let (out, lanes) = (&mut out[..k], &mut lanes[..4 * k]);
    out.fill(0.0);
    lanes.fill(0.0);
    for (j, (&x, col)) in v.iter().zip(cols.chunks_exact(k)).enumerate() {
        let acc = if j < full {
            &mut lanes[j % 4 * k..][..k]
        } else {
            &mut *out
        };
        add_sq_diffs(acc, x, col);
    }
    let (l0, rest) = lanes.split_at(k);
    let (l1, rest) = rest.split_at(k);
    let (l2, l3) = rest.split_at(k);
    // `out` holds the tail: (s0 + s1 + s2 + s3) + tail, the row kernel's
    // sum (a single IEEE addition commutes exactly).
    let mut c = 0;
    while c < k {
        out[c] += l0[c] + l1[c] + l2[c] + l3[c];
        c += 1;
    }
}

/// `acc[c] += (x - col[c])²` for every `c` in `acc`.
///
/// Written as one indexed `while` loop over slices of equal length: the
/// optimizer drops the bounds checks and vectorizes it, and unoptimized
/// (test) builds pay no iterator calls per element.
#[inline]
fn add_sq_diffs(acc: &mut [f32], x: f32, col: &[f32]) {
    let col = &col[..acc.len()];
    let mut c = 0;
    while c < acc.len() {
        let d = x - col[c];
        acc[c] += d * d;
        c += 1;
    }
}

/// Euclidean norm of `v`.
#[inline]
pub fn norm(v: &[f32]) -> f32 {
    dot(v, v).sqrt()
}

/// Cosine distance `1 - cos(a, b)`.
///
/// Returns `1.0` (orthogonal) when either vector has zero norm, so the
/// function is total.
#[inline]
pub fn cosine_distance(a: &[f32], b: &[f32]) -> f32 {
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    1.0 - dot(a, b) / (na * nb)
}

/// Normalizes `v` to unit length in place. Zero vectors are left unchanged.
pub fn normalize(v: &mut [f32]) {
    let n = norm(v);
    if n > 0.0 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{run, Gen};

    /// The pre-vectorization `l2_squared`, kept as the bit-exactness
    /// reference for the lane-order contract.
    fn l2_squared_ref(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        let chunks = n / 4;
        for i in 0..chunks {
            let j = i * 4;
            let d0 = a[j] - b[j];
            let d1 = a[j + 1] - b[j + 1];
            let d2 = a[j + 2] - b[j + 2];
            let d3 = a[j + 3] - b[j + 3];
            s0 += d0 * d0;
            s1 += d1 * d1;
            s2 += d2 * d2;
            s3 += d3 * d3;
        }
        let mut tail = 0.0f32;
        for j in chunks * 4..n {
            let d = a[j] - b[j];
            tail += d * d;
        }
        s0 + s1 + s2 + s3 + tail
    }

    /// The pre-vectorization `dot` (see [`l2_squared_ref`]).
    fn dot_ref(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        let chunks = n / 4;
        for i in 0..chunks {
            let j = i * 4;
            s0 += a[j] * b[j];
            s1 += a[j + 1] * b[j + 1];
            s2 += a[j + 2] * b[j + 2];
            s3 += a[j + 3] * b[j + 3];
        }
        let mut tail = 0.0f32;
        for j in chunks * 4..n {
            tail += a[j] * b[j];
        }
        s0 + s1 + s2 + s3 + tail
    }

    /// `cosine_distance` over the reference kernels.
    fn cosine_ref(a: &[f32], b: &[f32]) -> f32 {
        let na = dot_ref(a, a).sqrt();
        let nb = dot_ref(b, b).sqrt();
        if na == 0.0 || nb == 0.0 {
            return 1.0;
        }
        1.0 - dot_ref(a, b) / (na * nb)
    }

    /// A pair of vectors of one random length in `0..=1600`, a quarter of
    /// them below 9 so every tail occurs with and without a full chunk,
    /// occasionally with a second, shorter operand.
    fn pair(g: &mut Gen) -> (Vec<f32>, Vec<f32>) {
        let n = if g.bool(0.25) {
            g.usize_in(0, 9)
        } else {
            g.usize_in(0, 1601)
        };
        let scale = g.f32_in(1e-3, 1e3);
        let a: Vec<f32> = (0..n).map(|_| g.f32_in(-scale, scale)).collect();
        let m = if g.bool(0.1) { g.usize_in(0, n + 1) } else { n };
        let b: Vec<f32> = (0..m).map(|_| g.f32_in(-scale, scale)).collect();
        (a, b)
    }

    #[test]
    fn row_kernels_are_bit_identical_to_reference() {
        run("row_kernels_are_bit_identical_to_reference", 400, |g| {
            let (a, b) = pair(g);
            let n = a.len().min(b.len());
            assert_eq!(
                l2_squared(&a, &b).to_bits(),
                l2_squared_ref(&a, &b).to_bits(),
                "l2 n={n}"
            );
            assert_eq!(
                dot(&a, &b).to_bits(),
                dot_ref(&a, &b).to_bits(),
                "dot n={n}"
            );
            let (a, b) = (&a[..n], &b[..n]);
            assert_eq!(
                cosine_distance(a, b).to_bits(),
                cosine_ref(a, b).to_bits(),
                "cosine n={n}"
            );
        });
    }

    #[test]
    fn columns_kernel_is_bit_identical_per_column() {
        let dims: Vec<usize> = (1..=9).chain([96]).collect();
        run("columns_kernel_is_bit_identical_per_column", 8, |g| {
            for k in [1usize, 3, 128, 256] {
                for &dim in &dims {
                    let rows: Vec<Vec<f32>> =
                        (0..k).map(|_| g.vec_f32(dim, dim + 1, -4.0, 4.0)).collect();
                    let v = g.vec_f32(dim, dim + 1, -4.0, 4.0);
                    let mut cols = vec![0.0f32; dim * k];
                    for (c, row) in rows.iter().enumerate() {
                        for (j, &x) in row.iter().enumerate() {
                            cols[j * k + c] = x;
                        }
                    }
                    let (mut out, mut lanes) = (vec![f32::NAN; k], vec![f32::NAN; 4 * k]);
                    l2_squared_columns(&v, &cols, k, &mut out, &mut lanes);
                    for (c, row) in rows.iter().enumerate() {
                        assert_eq!(
                            out[c].to_bits(),
                            l2_squared(&v, row).to_bits(),
                            "k={k} dim={dim} c={c}"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn columns_kernel_handles_empty_shapes() {
        let (mut out, mut lanes) = ([f32::NAN; 2], [f32::NAN; 8]);
        l2_squared_columns(&[], &[], 2, &mut out, &mut lanes);
        assert_eq!(out, [0.0, 0.0]);
        l2_squared_columns(&[1.0], &[], 0, &mut [], &mut []);
    }

    fn naive_l2(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    fn naive_dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn l2_matches_naive_for_odd_lengths() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 13, 768] {
            let a: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
            let b: Vec<f32> = (0..n).map(|i| (n - i) as f32 * 0.25).collect();
            let fast = l2_squared(&a, &b);
            let naive = naive_l2(&a, &b);
            assert!(
                (fast - naive).abs() < 1e-3 * naive.max(1.0),
                "n={n}: {fast} vs {naive}"
            );
        }
    }

    #[test]
    fn dot_matches_naive_for_odd_lengths() {
        for n in [1usize, 3, 6, 9, 1536] {
            let a: Vec<f32> = (0..n).map(|i| (i % 7) as f32 - 3.0).collect();
            let b: Vec<f32> = (0..n).map(|i| (i % 5) as f32 - 2.0).collect();
            let fast = dot(&a, &b);
            let naive = naive_dot(&a, &b);
            assert!((fast - naive).abs() < 1e-3 * naive.abs().max(1.0));
        }
    }

    #[test]
    fn metric_l2_is_squared() {
        assert_eq!(Metric::L2.distance(&[0.0], &[2.0]), 4.0);
    }

    #[test]
    fn metric_ip_is_negated() {
        assert_eq!(
            Metric::InnerProduct.distance(&[1.0, 1.0], &[2.0, 3.0]),
            -5.0
        );
    }

    #[test]
    fn cosine_identity_and_orthogonal() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        assert!((Metric::Cosine.distance(&a, &a)).abs() < 1e-6);
        assert!((Metric::Cosine.distance(&a, &b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vector_is_total() {
        assert_eq!(cosine_distance(&[0.0, 0.0], &[1.0, 0.0]), 1.0);
    }

    #[test]
    fn normalize_makes_unit_norm() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((norm(&v) - 1.0).abs() < 1e-6);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn metric_name_round_trips() {
        for m in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
            assert_eq!(Metric::parse(m.name()), Some(m));
            assert_eq!(m.to_string(), m.name());
        }
        assert_eq!(Metric::parse("hamming"), None);
    }
}
