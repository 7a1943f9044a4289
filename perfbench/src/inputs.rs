//! Workload inputs, generated from the seed with the `rectpart-workloads`
//! generators and written with `write_csv`. Generation runs in a child
//! process (`perfbench gen`), so none of its memory or time shows in the
//! measuring process.

use std::path::{Path, PathBuf};

use rectpart_core::LoadMatrix;
use rectpart_workloads::io::{read_csv, write_csv};
use rectpart_workloads::{
    multi_peak, peak, uniform, MeshConfig, MeshKind, PicConfig, PicSimulation,
};

use crate::trace::Tracer;

/// Side of the square synthetic matrices of `oneshot-paper`.
pub const PAPER_SIDE: usize = 4096;
/// Side of the `oneshot-paper` mesh. The sparse Γ answers a rectangle
/// query in time linear in its rows; on a 4096² mesh single solves run
/// for minutes.
pub const MESH_SIDE: usize = 512;
/// Instance classes of `oneshot-paper`, one CSV each.
pub const PAPER_CLASSES: [&str; 4] = ["peak", "multi-peak", "uniform", "mesh"];
/// Independent PIC-MAG runs, each seeded from the workload seed; the
/// benchmark keeps snapshot 1 of each (snapshot 0 is atypically easy).
/// A run spread over several independent loads varies less from seed to
/// seed than one long trace, whose snapshots are alike.
pub const PIC_RUNS: usize = 8;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold CLI `partition` runs on 4096² synthetic and mesh inputs.
    OneshotPaper,
    /// In-memory exact DPs on 512² PIC-MAG snapshots.
    ExactPic,
    /// Resident engines serving drifting PIC-MAG loads.
    EngineDrift,
}

impl Workload {
    /// All workloads, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::OneshotPaper,
        Workload::ExactPic,
        Workload::EngineDrift,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OneshotPaper => "oneshot-paper",
            Workload::ExactPic => "exact-pic",
            Workload::EngineDrift => "engine-drift",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// CSV path of one `oneshot-paper` class.
pub fn paper_csv(dir: &Path, class: &str) -> PathBuf {
    dir.join(format!("{class}.csv"))
}

/// CSV path of the snapshot kept from PIC-MAG run `run`.
pub fn pic_csv(dir: &Path, run: usize) -> PathBuf {
    dir.join(format!("pic-{run:02}.csv"))
}

/// Every PIC-MAG CSV path, in run order.
pub fn pic_paths(dir: &Path) -> Vec<PathBuf> {
    (0..PIC_RUNS).map(|r| pic_csv(dir, r)).collect()
}

/// Generates the seed's inputs for `workload` into `dir`.
pub fn generate(workload: Workload, seed: u64, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    match workload {
        Workload::OneshotPaper => {
            for class in PAPER_CLASSES {
                write_synced(&paper_matrix(class, seed), &paper_csv(dir, class))?;
            }
        }
        Workload::ExactPic | Workload::EngineDrift => {
            for r in 0..PIC_RUNS {
                let mut sim = PicSimulation::new(PicConfig {
                    seed: seed.wrapping_mul(PIC_RUNS as u64).wrapping_add(r as u64),
                    ..PicConfig::default()
                });
                sim.next_snapshot();
                write_synced(&sim.next_snapshot().matrix, &pic_csv(dir, r))?;
            }
        }
    }
    Ok(())
}

/// Writes `matrix` with `write_csv` and flushes it to disk, so no
/// write-back of the generator's output runs during the measurement.
fn write_synced(matrix: &LoadMatrix, path: &Path) -> std::io::Result<()> {
    write_csv(matrix, path)?;
    std::fs::File::open(path)?.sync_all()
}

/// One `oneshot-paper` instance. The mesh generator has no seed of its
/// own; the seed picks the number of cavity cells instead.
fn paper_matrix(class: &str, seed: u64) -> LoadMatrix {
    let n = PAPER_SIDE;
    match class {
        "peak" => peak(n, n, seed).build(),
        "multi-peak" => multi_peak(n, n, seed.wrapping_add(1)).build(),
        "uniform" => uniform(n, n, seed.wrapping_add(2)).build(),
        "mesh" => MeshConfig {
            grid_rows: MESH_SIDE,
            grid_cols: MESH_SIDE,
            u_samples: 256,
            v_samples: 128,
            kind: MeshKind::Cavity {
                cells: 5 + (seed % 7) as usize,
            },
        }
        .generate(),
        other => unreachable!("unknown oneshot-paper class {other}"),
    }
}

/// Reads one CSV through the program's I/O layer inside a
/// `workloads.read_csv` span.
pub fn load_csv(t: &mut Tracer, path: &Path) -> Result<LoadMatrix, String> {
    t.span("workloads.read_csv", |_| read_csv(path))
        .map_err(|e| format!("{}: {e}", path.display()))
}
