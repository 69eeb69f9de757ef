//! The `hfl-serve` daemon binary.
//!
//! ```text
//! usage: hfl-serve [--addr 127.0.0.1:7700] [--data-dir hfl-serve-data]
//!     [--workers 2] [--worker-bin FILE]
//! ```
//!
//! `--workers` is the number of jobs run at once, `1..=`[`hfl::MAX_THREADS`].
//! With `--worker-bin`, fleet jobs spawn that binary as one worker
//! process per member (the `hfl::wire` protocol); without it they run
//! protocol-identical worker threads in the daemon process.
//!
//! SIGTERM or SIGINT triggers a graceful drain: running jobs stop at
//! their next round/epoch boundary (each writing a final checkpoint),
//! the job table is persisted to `<data-dir>/state.jsonl`, and the
//! process exits. Restarting with the same `--data-dir` re-queues the
//! interrupted jobs, resuming from their snapshots — the combined event
//! logs stay bit-identical to uninterrupted runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hfl::cli::Args;
use hfl_serve::{Daemon, DaemonConfig};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

fn main() {
    let mut args = Args::from_env();
    let addr: String = args.value("--addr", "127.0.0.1:7700".to_owned());
    let data_dir: String = args.value("--data-dir", "hfl-serve-data".to_owned());
    // Each worker is a thread, and zero workers would run no job.
    let workers: usize = args.value_in("--workers", 2, 1..=hfl::MAX_THREADS);
    let worker_bin = args.opt("--worker-bin", "FILE");
    args.done();

    // The std library has no signal API; registering the classic
    // signal(2) handler directly keeps the daemon dependency-free.
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }

    let mut config = DaemonConfig::new(addr, data_dir).with_workers(workers);
    config.worker_bin = worker_bin;
    let daemon = match Daemon::bind(&config) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("hfl-serve: cannot start on {}: {e}", config.addr);
            std::process::exit(1);
        }
    };
    match daemon.local_addr() {
        Ok(addr) => println!(
            "hfl-serve: listening on {addr} (data in {:?})",
            config.data_dir
        ),
        Err(_) => println!("hfl-serve: listening"),
    }
    let flag = shutdown_flag();
    if let Err(e) = daemon.run(&flag) {
        eprintln!("hfl-serve: {e}");
        std::process::exit(1);
    }
    println!("hfl-serve: drained, state saved");
}

/// The daemon API takes `Arc<AtomicBool>`, but a signal handler can
/// only touch a static — mirror the static into a shared flag.
fn shutdown_flag() -> Arc<AtomicBool> {
    let flag = Arc::new(AtomicBool::new(false));
    let mirror = Arc::clone(&flag);
    std::thread::spawn(move || loop {
        if SHUTDOWN.load(Ordering::SeqCst) {
            mirror.store(true, Ordering::SeqCst);
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    });
    flag
}
