//! The disk-resident contract: file-backed streaming matches in-memory
//! operation exactly, using only sequential passes.

use sfa::core::{Pipeline, PipelineConfig, Scheme};
use sfa::datagen::WeblogConfig;
use sfa::matrix::{io, FileRowStream, MemoryRowStream, PassScan, ScanCounter};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sfa_out_of_core_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn file_and_memory_pipelines_agree_for_every_scheme() {
    let data = WeblogConfig::tiny(13).generate();
    let rows = data.matrix.transpose();
    let path = tmp("pipelines_agree.sfab");
    io::write_binary(&rows, &path).unwrap();

    let schemes = [
        Scheme::Mh { k: 40, delta: 0.2 },
        Scheme::Kmh { k: 20, delta: 0.2 },
        Scheme::MLsh {
            k: 40,
            r: 4,
            l: 10,
            sampled: false,
        },
        Scheme::HLsh {
            r: 10,
            l: 4,
            t: 4,
            max_levels: 12,
        },
    ];
    for scheme in schemes {
        let cfg = PipelineConfig::new(scheme, 0.7, 31);
        let from_memory = Pipeline::new(cfg)
            .run(&mut MemoryRowStream::new(&rows))
            .unwrap();
        let mut fstream = FileRowStream::open(&path).unwrap();
        let from_file = Pipeline::new(cfg).run(&mut fstream).unwrap();
        assert_eq!(
            from_memory.verified,
            from_file.verified,
            "{} diverged between memory and file",
            scheme.name()
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn pipeline_makes_exactly_two_sequential_passes_over_the_file() {
    let data = WeblogConfig::tiny(17).generate();
    let rows = data.matrix.transpose();
    let path = tmp("two_passes.sfab");
    io::write_binary(&rows, &path).unwrap();

    let mut counter = ScanCounter::new(FileRowStream::open(&path).unwrap());
    let cfg = PipelineConfig::new(Scheme::Kmh { k: 16, delta: 0.2 }, 0.7, 3);
    let _ = Pipeline::new(cfg).run(&mut counter).unwrap();
    let pass = PassScan {
        rows: u64::from(rows.n_rows()),
        nonzeros: rows.nnz() as u64,
    };
    assert_eq!(counter.pass_scans(), &[pass, pass]);
    std::fs::remove_file(&path).ok();
}

#[test]
fn text_and_binary_roundtrips_preserve_pipeline_output() {
    let data = WeblogConfig::tiny(19).generate();
    let rows = data.matrix.transpose();
    let pt = tmp("roundtrip.sfat");
    let pb = tmp("roundtrip.sfab");
    io::write_text(&rows, &pt).unwrap();
    io::write_binary(&rows, &pb).unwrap();
    let from_text = io::read_text(&pt).unwrap();
    let from_binary = io::read_binary(&pb).unwrap();
    assert_eq!(from_text, rows);
    assert_eq!(from_binary, rows);
    std::fs::remove_file(&pt).ok();
    std::fs::remove_file(&pb).ok();
}
