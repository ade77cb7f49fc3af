//! Product quantization (Jégou, Douze & Schmid, TPAMI 2011).
//!
//! A vector of dimension `d` is split into `m` contiguous sub-vectors; each
//! sub-vector is quantized to the nearest of `ksub` trained sub-centroids.
//! The code is then `m` small integers (stored as bytes). Asymmetric distance
//! computation (ADC) against a query uses one lookup table of
//! `m × ksub` partial distances computed once per query.
//!
//! DiskANN keeps exactly this representation in memory to rank candidates
//! while full-precision vectors stay on disk (§II-B of the paper).

use crate::kmeans::{argmin, transpose, KMeans};
use sann_core::cast;
use sann_core::distance::l2_squared_columns;
use sann_core::{Dataset, Error, Result};

/// Largest supported `ksub`: codes are one byte per sub-space. Per-call
/// kernel buffers are stack arrays of this size, so encoding and ADC tables
/// allocate nothing beyond their results.
const MAX_KSUB: usize = 256;

/// A trained product quantizer.
#[derive(Debug, Clone)]
pub struct ProductQuantizer {
    dim: usize,
    m: usize,
    ksub: usize,
    sub_dim: usize,
    /// `m` codebooks, each `sub_dim × ksub` in dimension-major order
    /// (component `j` of centroid `c` at `j * ksub + c`), flattened. This is
    /// the layout [`l2_squared_columns`] scores a sub-vector against in one
    /// batch; the persisted encoding stays row-major.
    codebooks: Vec<f32>,
}

impl ProductQuantizer {
    /// Trains a quantizer with `m` sub-spaces of `ksub` centroids each.
    ///
    /// Typical configurations use `ksub = 256` so codes are exactly `m`
    /// bytes; smaller `ksub` values train faster on small datasets.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `m` does not divide the data
    /// dimensionality, if `ksub` is 0 or > 256, or if there are fewer
    /// training vectors than `ksub`.
    pub fn train(data: &Dataset, m: usize, ksub: usize, seed: u64) -> Result<ProductQuantizer> {
        let dim = data.dim();
        if m == 0 || !dim.is_multiple_of(m) {
            return Err(Error::invalid_parameter(
                "m",
                format!("{m} must be a positive divisor of dim {dim}"),
            ));
        }
        if ksub == 0 || ksub > MAX_KSUB {
            return Err(Error::invalid_parameter("ksub", "must be in 1..=256"));
        }
        if data.len() < ksub {
            return Err(Error::invalid_parameter(
                "ksub",
                format!("{ksub} sub-centroids need at least that many training vectors"),
            ));
        }
        let sub_dim = dim / m;
        let mut codebooks = Vec::with_capacity(m * ksub * sub_dim);
        for sub in 0..m {
            // Slice out the sub-vectors for this subspace.
            let mut subdata = Dataset::with_dim(sub_dim);
            for row in data.iter() {
                subdata
                    .push(&row[sub * sub_dim..(sub + 1) * sub_dim])
                    .expect("same dim");
            }
            let model = KMeans::new(ksub)
                .with_seed(seed.wrapping_add(sub as u64))
                .with_sample_limit(50_000)
                .with_max_iters(15)
                .fit(&subdata)?;
            codebooks.extend(transpose(model.centroids.as_flat(), ksub, sub_dim));
        }
        Ok(ProductQuantizer {
            dim,
            m,
            ksub,
            sub_dim,
            codebooks,
        })
    }

    /// Dimensionality of input vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of sub-spaces (bytes per code).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of centroids per sub-space.
    pub fn ksub(&self) -> usize {
        self.ksub
    }

    /// Bytes of one encoded vector.
    pub fn code_bytes(&self) -> usize {
        self.m
    }

    /// Encodes a vector to its `m`-byte code.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.dim()`.
    pub fn encode(&self, v: &[f32]) -> Vec<u8> {
        assert_eq!(v.len(), self.dim, "encode dimension mismatch");
        let mut code = vec![0u8; self.m];
        let (mut dists, mut lanes) = ([0.0f32; MAX_KSUB], [0.0f32; 4 * MAX_KSUB]);
        let (dists, lanes) = (&mut dists[..self.ksub], &mut lanes[..4 * self.ksub]);
        self.encode_with(v, &mut code, dists, lanes);
        code
    }

    /// Writes the code of `v` into `code`: per sub-space, the nearest
    /// centroid (lowest id on ties), scored with one column-kernel batch.
    /// `dists` (`ksub` long) and `lanes` (`4 * ksub`) are caller buffers.
    fn encode_with(&self, v: &[f32], code: &mut [u8], dists: &mut [f32], lanes: &mut [f32]) {
        let books = self.codebooks.chunks_exact(self.ksub * self.sub_dim);
        for ((slot, sv), book) in code.iter_mut().zip(v.chunks_exact(self.sub_dim)).zip(books) {
            l2_squared_columns(sv, book, self.ksub, dists, lanes);
            *slot = cast::u8_from_usize(argmin(dists));
        }
    }

    /// Encodes every row of a dataset, returning a flat `n × m` code matrix.
    /// Encoding is parallelized across all cores.
    pub fn encode_all(&self, data: &Dataset) -> Vec<u8> {
        let mut codes = vec![0u8; data.len() * self.m];
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        let chunk_rows = data.len().div_ceil(threads.max(1)).max(1);
        std::thread::scope(|scope| {
            for (t, out) in codes.chunks_mut(chunk_rows * self.m).enumerate() {
                scope.spawn(move || {
                    let (mut dists, mut lanes) = ([0.0f32; MAX_KSUB], [0.0f32; 4 * MAX_KSUB]);
                    let (dists, lanes) = (&mut dists[..self.ksub], &mut lanes[..4 * self.ksub]);
                    let rows = data.iter().skip(t * chunk_rows);
                    for (slot, row) in out.chunks_mut(self.m).zip(rows) {
                        self.encode_with(row, slot, dists, lanes);
                    }
                });
            }
        });
        codes
    }

    /// Component `j` of centroid `c` in sub-space `sub`.
    fn centroid_at(&self, sub: usize, c: usize, j: usize) -> f32 {
        self.codebooks[(sub * self.sub_dim + j) * self.ksub + c]
    }

    /// The codebooks in row-major order (`m × ksub × sub_dim`), the order
    /// the persisted encoding uses.
    fn row_major(&self) -> impl Iterator<Item = f32> + '_ {
        (0..self.m).flat_map(move |sub| {
            (0..self.ksub)
                .flat_map(move |c| (0..self.sub_dim).map(move |j| self.centroid_at(sub, c, j)))
        })
    }

    /// Reconstructs the approximate vector for a code.
    ///
    /// # Panics
    ///
    /// Panics if `code.len() != self.m()`.
    pub fn decode(&self, code: &[u8]) -> Vec<f32> {
        assert_eq!(code.len(), self.m, "decode length mismatch");
        let mut v = Vec::with_capacity(self.dim);
        for (sub, &c) in code.iter().enumerate() {
            v.extend((0..self.sub_dim).map(|j| self.centroid_at(sub, usize::from(c), j)));
        }
        v
    }

    /// Appends the canonical little-endian encoding of the trained quantizer
    /// (shape, then the flattened row-major codebooks) to `buf`.
    pub fn encode_into(&self, buf: &mut sann_core::buf::ByteWriter) {
        buf.put_u32_le(self.dim as u32);
        buf.put_u32_le(self.m as u32);
        buf.put_u32_le(self.ksub as u32);
        for x in self.row_major() {
            buf.put_f32_le(x);
        }
    }

    /// Reads a quantizer previously written by
    /// [`ProductQuantizer::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on truncation or an inconsistent shape.
    pub fn decode_from(r: &mut sann_core::buf::ByteReader<'_>) -> Result<ProductQuantizer> {
        let dim = r.get_u32_le()? as usize;
        let m = r.get_u32_le()? as usize;
        let ksub = r.get_u32_le()? as usize;
        if m == 0 || dim == 0 || !dim.is_multiple_of(m) || ksub == 0 || ksub > MAX_KSUB {
            return Err(Error::Corrupt("pq: inconsistent shape".into()));
        }
        let sub_dim = dim / m;
        let total = m * ksub * sub_dim;
        if r.remaining() < total * 4 {
            return Err(Error::Corrupt("pq: truncated codebooks".into()));
        }
        let mut row_major = Vec::with_capacity(total);
        for _ in 0..total {
            row_major.push(r.get_f32_le()?);
        }
        let codebooks = row_major
            .chunks_exact(ksub * sub_dim)
            .flat_map(|book| transpose(book, ksub, sub_dim))
            .collect();
        Ok(ProductQuantizer {
            dim,
            m,
            ksub,
            sub_dim,
            codebooks,
        })
    }

    /// Builds the ADC lookup table for a query.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != self.dim()`.
    pub fn distance_table(&self, query: &[f32]) -> DistanceTable {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let mut table = vec![0.0f32; self.m * self.ksub];
        let mut lanes = [0.0f32; 4 * MAX_KSUB];
        self.fill_table(query, &mut table, &mut lanes[..4 * self.ksub]);
        DistanceTable {
            table,
            m: self.m,
            ksub: self.ksub,
        }
    }

    /// Fills the ADC table: row `sub` holds the `ksub` partial distances of
    /// sub-space `sub`, scored with one column-kernel batch.
    fn fill_table(&self, query: &[f32], table: &mut [f32], lanes: &mut [f32]) {
        let books = self.codebooks.chunks_exact(self.ksub * self.sub_dim);
        let rows = table.chunks_exact_mut(self.ksub);
        for ((row, qv), book) in rows.zip(query.chunks_exact(self.sub_dim)).zip(books) {
            l2_squared_columns(qv, book, self.ksub, row, lanes);
        }
    }
}

/// Per-query ADC lookup table produced by
/// [`ProductQuantizer::distance_table`].
#[derive(Debug, Clone)]
pub struct DistanceTable {
    table: Vec<f32>,
    m: usize,
    ksub: usize,
}

impl DistanceTable {
    /// Approximate squared L2 distance between the table's query and an
    /// encoded vector.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `code.len()` differs from the quantizer's `m`.
    #[inline]
    pub fn distance(&self, code: &[u8]) -> f32 {
        debug_assert_eq!(code.len(), self.m);
        let mut d = 0.0f32;
        for (sub, &c) in code.iter().enumerate() {
            d += self.table[sub * self.ksub + c as usize];
        }
        d
    }

    /// Distance of the `i`-th code in a flat code matrix.
    #[inline]
    pub fn distance_at(&self, codes: &[u8], i: usize) -> f32 {
        self.distance(&codes[i * self.m..(i + 1) * self.m])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sann_core::distance::l2_squared;
    use sann_datagen::EmbeddingModel;

    fn train_small() -> (Dataset, ProductQuantizer) {
        let data = EmbeddingModel::new(32, 4, 11).generate(600);
        let pq = ProductQuantizer::train(&data, 4, 16, 1).unwrap();
        (data, pq)
    }

    #[test]
    fn code_shape() {
        let (data, pq) = train_small();
        let code = pq.encode(data.row(0));
        assert_eq!(code.len(), 4);
        assert_eq!(pq.code_bytes(), 4);
        assert!(code.iter().all(|&c| (c as usize) < pq.ksub()));
    }

    #[test]
    fn reconstruction_error_is_bounded() {
        let (data, pq) = train_small();
        let mut total = 0.0f64;
        for row in data.iter().take(100) {
            let rec = pq.decode(&pq.encode(row));
            total += l2_squared(row, &rec) as f64;
        }
        // Unit vectors; squared distance between random unit vectors is ~2.
        let mse = total / 100.0;
        assert!(mse < 0.5, "reconstruction MSE {mse} too large");
    }

    #[test]
    fn adc_approximates_true_distance() {
        let (data, pq) = train_small();
        let q = data.row(0);
        let table = pq.distance_table(q);
        let mut err = 0.0f64;
        for (i, row) in data.iter().enumerate().take(200) {
            let true_d = l2_squared(q, row);
            let approx = table.distance(&pq.encode(row));
            err += (true_d - approx).abs() as f64;
            let _ = i;
        }
        assert!(
            err / 200.0 < 0.5,
            "mean ADC error too large: {}",
            err / 200.0
        );
    }

    #[test]
    fn adc_preserves_ranking_roughly() {
        // The PQ-nearest of a query among 200 points should be within the
        // true top-20 — that is the property DiskANN relies on.
        let (data, pq) = train_small();
        let codes = pq.encode_all(&data);
        let q = data.row(7);
        let table = pq.distance_table(q);
        let pq_best = (0..200).min_by(|&a, &b| {
            table
                .distance_at(&codes, a)
                .total_cmp(&table.distance_at(&codes, b))
        });
        let mut true_dists: Vec<(f32, usize)> =
            (0..200).map(|i| (l2_squared(q, data.row(i)), i)).collect();
        true_dists.sort_by(|a, b| a.0.total_cmp(&b.0));
        let top20: Vec<usize> = true_dists.iter().take(20).map(|&(_, i)| i).collect();
        assert!(top20.contains(&pq_best.unwrap()));
    }

    #[test]
    fn rejects_bad_m() {
        let data = EmbeddingModel::new(30, 2, 1).generate(100);
        assert!(ProductQuantizer::train(&data, 4, 16, 1).is_err());
        assert!(ProductQuantizer::train(&data, 0, 16, 1).is_err());
    }

    #[test]
    fn rejects_bad_ksub() {
        let data = EmbeddingModel::new(32, 2, 1).generate(100);
        assert!(ProductQuantizer::train(&data, 4, 0, 1).is_err());
        assert!(ProductQuantizer::train(&data, 4, 257, 1).is_err());
        assert!(
            ProductQuantizer::train(&data, 4, 128, 1).is_err(),
            "too few training rows"
        );
    }

    #[test]
    fn codec_round_trips_bit_exact() {
        let (data, pq) = train_small();
        let mut w = sann_core::buf::ByteWriter::new();
        pq.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = sann_core::buf::ByteReader::new(&bytes, "test");
        let back = ProductQuantizer::decode_from(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        // The decoded quantizer produces identical codes and distances.
        assert_eq!(back.encode(data.row(0)), pq.encode(data.row(0)));
        let mut w2 = sann_core::buf::ByteWriter::new();
        back.encode_into(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn codec_rejects_corruption() {
        let (_, pq) = train_small();
        let mut w = sann_core::buf::ByteWriter::new();
        pq.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = sann_core::buf::ByteReader::new(&bytes[..bytes.len() - 1], "test");
        assert!(ProductQuantizer::decode_from(&mut r).is_err());
        let mut bad = bytes.clone();
        bad[4..8].copy_from_slice(&3u32.to_le_bytes()); // m=3 does not divide dim=32
        let mut r = sann_core::buf::ByteReader::new(&bad, "test");
        assert!(ProductQuantizer::decode_from(&mut r).is_err());
    }

    #[test]
    fn batch_paths_match_row_major_reference() {
        // 32-d with m = 4 (8-d sub-vectors) and 38-d with m = 2 (19-d
        // sub-vectors, a three-wide kernel tail).
        let cases = [
            (EmbeddingModel::new(32, 4, 11).generate(600), 4, 16, 1),
            (EmbeddingModel::new(38, 4, 12).generate(400), 2, 64, 7),
        ];
        for (data, m, ksub, seed) in cases {
            let pq = ProductQuantizer::train(&data, m, ksub, seed).unwrap();
            let sub_dim = data.dim() / m;
            // Row-major codebooks from the same per-sub-space k-means.
            let books: Vec<Dataset> = (0..m)
                .map(|sub| {
                    let mut subdata = Dataset::with_dim(sub_dim);
                    for row in data.iter() {
                        subdata
                            .push(&row[sub * sub_dim..(sub + 1) * sub_dim])
                            .unwrap();
                    }
                    KMeans::new(ksub)
                        .with_seed(seed + sub as u64)
                        .with_sample_limit(50_000)
                        .with_max_iters(15)
                        .fit(&subdata)
                        .unwrap()
                        .centroids
                })
                .collect();
            let mut expect = sann_core::buf::ByteWriter::new();
            for x in [data.dim(), m, ksub] {
                expect.put_u32_le(x as u32);
            }
            for x in books.iter().flat_map(|b| b.as_flat()) {
                expect.put_f32_le(*x);
            }
            let mut got = sann_core::buf::ByteWriter::new();
            pq.encode_into(&mut got);
            assert_eq!(got.into_bytes(), expect.into_bytes(), "codebooks");

            let codes = pq.encode_all(&data);
            for (i, row) in data.iter().enumerate() {
                for (sub, book) in books.iter().enumerate() {
                    let sv = &row[sub * sub_dim..(sub + 1) * sub_dim];
                    let mut best = (0, f32::INFINITY);
                    for (c, centroid) in book.iter().enumerate() {
                        let d = l2_squared(sv, centroid);
                        if d < best.1 {
                            best = (c, d);
                        }
                    }
                    assert_eq!(usize::from(codes[i * m + sub]), best.0, "row {i} sub {sub}");
                }
            }

            for q in data.iter().step_by(37) {
                let table = pq.distance_table(q);
                for (sub, book) in books.iter().enumerate() {
                    let qv = &q[sub * sub_dim..(sub + 1) * sub_dim];
                    for (c, centroid) in book.iter().enumerate() {
                        assert_eq!(
                            table.table[sub * ksub + c].to_bits(),
                            l2_squared(qv, centroid).to_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn decode_reconstructs_row_major_centroids() {
        let (data, pq) = train_small();
        let code = pq.encode(data.row(3));
        let mut w = sann_core::buf::ByteWriter::new();
        pq.encode_into(&mut w);
        let bytes = w.into_bytes();
        let floats: Vec<f32> = bytes[12..]
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        let sub_dim = pq.dim() / pq.m();
        let expect: Vec<f32> = code
            .iter()
            .enumerate()
            .flat_map(|(sub, &c)| {
                let start = (sub * pq.ksub() + usize::from(c)) * sub_dim;
                floats[start..start + sub_dim].to_vec()
            })
            .collect();
        assert_eq!(pq.decode(&code), expect);
    }

    #[test]
    fn encode_all_is_row_major() {
        let (data, pq) = train_small();
        let codes = pq.encode_all(&data);
        assert_eq!(codes.len(), data.len() * pq.m());
        assert_eq!(&codes[..pq.m()], pq.encode(data.row(0)).as_slice());
    }
}
