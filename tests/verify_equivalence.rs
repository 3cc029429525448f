//! The container verifier (the benchmark's phase-3 probe) must be
//! indistinguishable from the streaming row-scan verifier on fault-free
//! data: identical `VerifiedPair` lists (exact intersection, union,
//! similarity, estimate) and identical column counts, for the candidate
//! list of every scheme. Resident pipeline runs, which count over the
//! table's row slices, must equal the streamed run at every pool size.

use sfa::core::verify::{verify_candidates, verify_candidates_in_memory_pool_with_report};
use sfa::core::{Pipeline, PipelineConfig, Scheme};
use sfa::datagen::SyntheticConfig;
use sfa::matrix::MemoryRowStream;
use sfa::minhash::CandidatePair;

fn schemes() -> Vec<Scheme> {
    vec![
        Scheme::Mh { k: 100, delta: 0.2 },
        Scheme::MhRowSort { k: 100, delta: 0.2 },
        Scheme::Kmh { k: 64, delta: 0.2 },
        Scheme::MLsh {
            k: 100,
            r: 5,
            l: 20,
            sampled: false,
        },
        Scheme::MLsh {
            k: 60,
            r: 5,
            l: 20,
            sampled: true,
        },
        Scheme::HLsh {
            r: 8,
            l: 8,
            t: 4,
            max_levels: 12,
        },
    ]
}

#[test]
fn in_memory_verifier_matches_streaming_for_every_scheme() {
    let data = SyntheticConfig::small(1_500, 23).generate();
    let columns = data.matrix;
    let rows = columns.transpose();

    let pool1 = sfa::par::ThreadPool::new(1);
    let pool3 = sfa::par::ThreadPool::new(3);
    for scheme in schemes() {
        // The pipeline's verified list is the scheme's candidate list with
        // exact counts attached (one entry per candidate, sorted by ids),
        // so it reconstructs the candidates the scheme generated.
        let result = Pipeline::new(PipelineConfig::new(scheme, 0.6, 9))
            .run(&mut MemoryRowStream::new(&rows))
            .unwrap();
        let candidates: Vec<CandidatePair> = result
            .verified
            .iter()
            .map(|p| CandidatePair {
                i: p.i,
                j: p.j,
                estimate: p.estimate,
            })
            .collect();

        let (stream_verified, stream_counts) =
            verify_candidates(&mut MemoryRowStream::new(&rows), &candidates).unwrap();
        // A 1-thread pool runs the container verifier serially.
        for pool in [&pool1, &pool3] {
            let (pool_verified, pool_counts, _) =
                verify_candidates_in_memory_pool_with_report(&columns, &candidates, pool);
            assert_eq!(pool_verified, stream_verified, "{}", scheme.name());
            assert_eq!(pool_counts, stream_counts, "{}", scheme.name());
        }

        // And the pipeline's own output, counted over the stream, must
        // agree with the direct streaming call.
        assert_eq!(result.verified, stream_verified, "{}", scheme.name());
    }
}

#[test]
fn resident_runs_equal_the_streamed_run_at_every_pool_size() {
    let rows = SyntheticConfig::small(1_500, 23)
        .generate()
        .matrix
        .transpose();
    let pools = [1, 2, 4].map(sfa::par::ThreadPool::new);
    for scheme in schemes() {
        let pipeline = Pipeline::new(PipelineConfig::new(scheme, 0.6, 9));
        let streamed = pipeline.run(&mut MemoryRowStream::new(&rows)).unwrap();
        for pool in &pools {
            let resident = pipeline.run_pool(&rows, pool);
            let at = format!("{} x{}", scheme.name(), pool.threads());
            assert_eq!(resident.verified, streamed.verified, "{at}");
            assert_eq!(resident.column_counts, streamed.column_counts, "{at}");
            assert_eq!(
                resident.metrics.verification, streamed.metrics.verification,
                "{at}: verdicts and intersection_work"
            );
            assert_eq!(
                resident.metrics.candidate_stages, streamed.metrics.candidate_stages,
                "{at}"
            );
        }
    }
}
