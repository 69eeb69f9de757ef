//! The distributed-fleet worker process: connects back to a coordinator
//! (`hfl::fleet_dist::run_fleet_dist` with a `ProcessLauncher`), speaks
//! the `hfl::wire` protocol, and runs whatever epoch grants arrive.
//!
//! ```text
//! usage: fleet_worker [--connect HOST:PORT] [--worker 0]
//! ```
//!
//! `--connect` is required. The coordinator launches this binary itself
//! (`fleet --distributed --worker-bin …`, or `hfl-serve --worker-bin
//! …`), passing its listener's address and the worker's index.
//!
//! Exit status is 0 on a clean `Shutdown`/disconnect and 1 on a
//! protocol error (version mismatch, corrupt frame, bad state blob).

use hfl::cli::Args;
use hfl::fleet_dist::run_worker;

fn main() {
    let mut args = Args::from_env();
    let addr: Option<String> = args.opt("--connect", "HOST:PORT");
    let worker: u32 = args.value("--worker", 0);
    args.done();
    let Some(addr) = addr else {
        eprintln!("fleet_worker: --connect HOST:PORT is required");
        std::process::exit(2);
    };

    if let Err(err) = run_worker(&addr, worker, None) {
        eprintln!("fleet_worker {worker}: {err}");
        std::process::exit(1);
    }
}
