//! Build-artifact digest golden.
//!
//! Every setup's index is built over one fixed small dataset and the FNV-1a
//! digest of its persisted artifact frame is compared with a recorded
//! constant. The frame carries the graph, codebooks, codes and centroids,
//! so any change to the bits a distance kernel, k-means or PQ produces
//! fails here, in the default test run, instead of surfacing later as a
//! recall or latency shift in a benchmark.
//!
//! The dimensionality (38) is deliberately not a multiple of the kernels'
//! four lanes, and its PQ sub-vectors (19-d for the LanceDB IVF-PQ and
//! Milvus-DiskANN setups) are not either, so the tail paths are pinned too.
//! Two metrics cover both row kernels: L2 uses `l2_squared`, cosine uses
//! `dot`.
//!
//! If a change *intends* to move the bits, re-record the constants and say
//! so in the change description.

use sann::core::hash::fnv1a64;
use sann::core::Metric;
use sann::datagen::EmbeddingModel;
use sann::vdb::{Setup, SetupKind};

/// `(setup, metric, digest of persist_encode())`, recorded before the
/// distance kernels were restructured.
const GOLDEN: &[(SetupKind, Metric, u64)] = &[
    (SetupKind::MilvusIvf, Metric::L2, 0xf8983d61d70f5bd5),
    (SetupKind::MilvusHnsw, Metric::L2, 0x2a52210e2acf918e),
    (SetupKind::MilvusDiskann, Metric::L2, 0xd3b83f55240cce2f),
    (SetupKind::QdrantHnsw, Metric::L2, 0x2a52210e2acf918e),
    (SetupKind::WeaviateHnsw, Metric::L2, 0x2a52210e2acf918e),
    (SetupKind::LancedbHnsw, Metric::L2, 0x71f766841b3e4ac7),
    (SetupKind::LancedbIvf, Metric::L2, 0x321ba9a202edf799),
    (SetupKind::MilvusIvf, Metric::Cosine, 0xe6d7e3268f1c22ef),
    (SetupKind::MilvusHnsw, Metric::Cosine, 0x93a1f68a18f15228),
    (SetupKind::MilvusDiskann, Metric::Cosine, 0xd7a3ca20f59a757d),
    (SetupKind::QdrantHnsw, Metric::Cosine, 0x93a1f68a18f15228),
    (SetupKind::WeaviateHnsw, Metric::Cosine, 0x93a1f68a18f15228),
    (SetupKind::LancedbHnsw, Metric::Cosine, 0x6038b66c57a0b829),
    (SetupKind::LancedbIvf, Metric::Cosine, 0x321ba9a202edf799),
];

#[test]
fn persisted_artifacts_match_recorded_digests() {
    let base = EmbeddingModel::new(38, 4, 0xD16E57).generate(600);
    let mut got = Vec::new();
    for metric in [Metric::L2, Metric::Cosine] {
        for kind in SetupKind::all() {
            let setup = Setup::new(kind, base.len());
            let index = setup.build_index(&base, metric).unwrap();
            let bytes = index
                .persist_encode()
                .unwrap_or_else(|| panic!("{kind} must be persistable"));
            got.push((kind, metric, fnv1a64(&bytes)));
        }
    }
    for (kind, metric, digest) in &got {
        eprintln!("    (SetupKind::{kind:?}, Metric::{metric:?}, {digest:#018x}),");
    }
    assert_eq!(got.len(), GOLDEN.len(), "one digest per (setup, metric)");
    for ((kind, metric, digest), (gk, gm, gd)) in got.iter().zip(GOLDEN) {
        assert_eq!((kind, metric), (gk, gm), "golden order drifted");
        assert_eq!(
            digest, gd,
            "{kind} / {metric}: persisted artifact bytes changed"
        );
    }
}
