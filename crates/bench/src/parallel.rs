//! Parallel campaign execution: each (fuzzer, core, seed) job owns its own
//! DUT/GRM pair, so campaigns parallelise embarrassingly across threads.
//!
//! This is campaign-level parallelism (one thread per whole campaign). For
//! case-level parallelism inside a single campaign, see `hfl::exec`.

/// Runs jobs on one thread each, returning results in job order.
///
/// # Panics
///
/// Propagates a panic from any job.
pub fn run_parallel<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs.into_iter().map(|job| scope.spawn(job)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel job panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfl::baselines::DifuzzRtlFuzzer;
    use hfl::campaign::{run_campaign, CampaignConfig, CampaignSpec};
    use hfl_dut::CoreKind;

    #[test]
    fn parallel_results_match_sequential() {
        let job = |seed: u64| {
            move || {
                let mut fuzzer = DifuzzRtlFuzzer::new(seed, 10);
                run_campaign(
                    &mut fuzzer,
                    &CampaignSpec::builder(CoreKind::Rocket, CampaignConfig::quick(15))
                        .build()
                        .expect("valid campaign spec"),
                )
                .expect("campaign runs")
            }
        };
        let parallel = run_parallel(vec![job(1), job(2)]);
        let mut fuzzer = DifuzzRtlFuzzer::new(1, 10);
        let sequential = run_campaign(
            &mut fuzzer,
            &CampaignSpec::builder(CoreKind::Rocket, CampaignConfig::quick(15))
                .build()
                .expect("valid campaign spec"),
        )
        .expect("campaign runs");
        assert_eq!(parallel[0].curve, sequential.curve);
        assert_eq!(parallel.len(), 2);
    }
}
