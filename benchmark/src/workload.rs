//! The benchmark's named workloads and the seeds they derive from `--seed`.

use sann_core::rng::SplitMix64;
use sann_datagen::{catalog, DatasetSpec};
use sann_engine::FaultProfile;
use sann_index::{FreshConfig, VamanaConfig};
use sann_vdb::SetupKind;

/// Dataset scale relative to the paper: the harness default (cohere-s is
/// 2,000 x 768-d, openai-s 1,000 x 1,536-d; each has 1,000 queries).
pub const SCALE: f64 = 0.002;

/// One search in this many op-stream operations is followed by an insert
/// (1 op in 5 an insert on the read-write workload).
pub const SEARCHES_PER_INSERT: usize = 4;

/// Simulated clients of the two replays: one client, and enough clients to
/// saturate the 20 simulated cores.
pub const CLIENTS: [usize; 2] = [1, 64];

/// Simulated host cores (the paper's testbed).
pub const SIM_CORES: usize = 20;

/// A named end-to-end workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Milvus-DiskANN on cohere-s, healthy device, direct I/O.
    DiskannCohere,
    /// Milvus-HNSW on openai-s: memory-based, no device reads.
    HnswOpenai,
    /// Milvus-DiskANN searches interleaved with FreshDiskANN inserts on
    /// cohere-s, under the flaky fault profile.
    DiskannRwFlaky,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DiskannCohere,
        Workload::HnswOpenai,
        Workload::DiskannRwFlaky,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DiskannCohere => "diskann-cohere",
            Workload::HnswOpenai => "hnsw-openai",
            Workload::DiskannRwFlaky => "diskann-rw-flaky",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The dataset, scaled, with its generator seed folded with `seed`.
    pub fn spec(self, seed: u64) -> DatasetSpec {
        let mut spec = match self {
            Workload::HnswOpenai => catalog::openai_s(),
            Workload::DiskannCohere | Workload::DiskannRwFlaky => catalog::cohere_s(),
        }
        .scaled(SCALE);
        spec.seed = mix(spec.seed, seed);
        spec
    }

    pub fn kind(self) -> SetupKind {
        match self {
            Workload::HnswOpenai => SetupKind::MilvusHnsw,
            Workload::DiskannCohere | Workload::DiskannRwFlaky => SetupKind::MilvusDiskann,
        }
    }

    pub fn fault_profile(self) -> FaultProfile {
        match self {
            Workload::DiskannRwFlaky => FaultProfile::flaky(),
            Workload::DiskannCohere | Workload::HnswOpenai => FaultProfile::none(),
        }
    }

    /// Whether the op stream carries FreshDiskANN inserts.
    pub fn writes(self) -> bool {
        self == Workload::DiskannRwFlaky
    }

    /// Cold set-ups per run; `setup_s` is their median. A DiskANN build
    /// takes 15-20 s on a 2-core host, and the read-write workload builds
    /// two indexes, so the DiskANN workloads set up fewer times to keep a
    /// run under 45 s.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::HnswOpenai => 3,
            Workload::DiskannCohere => 2,
            Workload::DiskannRwFlaky => 1,
        }
    }

    /// Op-stream passes per run, 3-7 s of searches (and inserts) on a
    /// 2-core host; `host_ops_per_s` is their median. Search speed on a
    /// shared host swings by a quarter from second to second, so the
    /// median needs about a dozen samples. The count is fixed so every run
    /// does the same work: on the read-write workload each pass inserts a
    /// new slice of the stream, and the index grows by the same amount in
    /// every run.
    pub fn op_passes(self) -> usize {
        match self {
            Workload::HnswOpenai | Workload::DiskannCohere => 12,
            Workload::DiskannRwFlaky => 6,
        }
    }

    /// Simulated seconds of each replay. HNSW queries are short, so its
    /// replay runs the paper's 30 s to give the host-clock replay rate
    /// enough work; the DiskANN replays run the harness default of 5 s.
    pub fn sim_duration_us(self) -> f64 {
        match self {
            Workload::HnswOpenai => 30e6,
            Workload::DiskannCohere | Workload::DiskannRwFlaky => 5e6,
        }
    }
}

/// The seeds a run derives from `--seed`.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// Build seed of the index ([`sann_vdb::Setup::seed`]).
    pub build: u64,
    /// Tag of the insert stream ([`sann_datagen::EmbeddingModel::generate_stream`]).
    pub stream: u64,
}

impl Seeds {
    pub fn new(seed: u64) -> Seeds {
        Seeds {
            build: mix(0xBE7C4, seed),
            stream: mix(0x1A5E27, seed),
        }
    }
}

/// The FreshDiskANN configuration of the read-write workload (the
/// `ext-rw` experiment's), built single-threaded so inserts replay
/// identically.
pub fn fresh_config(build_seed: u64) -> FreshConfig {
    FreshConfig {
        graph: VamanaConfig {
            r: 32,
            l_build: 50,
            seed: build_seed,
            threads: 1,
            ..VamanaConfig::default()
        },
        l_insert: 50,
        pq_m: 0,
        pq_ksub: 128,
    }
}

/// Folds the benchmark seed into a base seed.
fn mix(base: u64, seed: u64) -> u64 {
    SplitMix64::new(base).split(seed).next_u64()
}
