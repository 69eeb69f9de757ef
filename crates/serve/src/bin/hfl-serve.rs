//! The `hfl-serve` daemon binary.
//!
//! ```text
//! cargo run --release -p hfl-serve --bin hfl-serve -- \
//!     [--addr 127.0.0.1:7700] [--data-dir hfl-serve-data] [--workers 2] \
//!     [--worker-bin path/to/fleet_worker]
//! ```
//!
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

fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: hfl-serve [--addr HOST:PORT] [--data-dir DIR] [--workers N] [--worker-bin BIN]\n\
             SIGTERM drains gracefully; restart with the same --data-dir to resume."
        );
        return;
    }
    if let Some(bin) = arg_value(&args, "--worker-bin") {
        // Fleet jobs read this when choosing process vs thread workers.
        std::env::set_var(hfl_serve::jobs::WORKER_BIN_ENV, bin);
    }
    let addr = arg_value(&args, "--addr").unwrap_or_else(|| String::from("127.0.0.1:7700"));
    let data_dir = arg_value(&args, "--data-dir").unwrap_or_else(|| String::from("hfl-serve-data"));
    // A present but missing or unparsable value exits 2, like the
    // harness binaries' `arg_num`, instead of starting two workers; so
    // does a count of zero, which would run no job, or one above the
    // thread bound, since each worker is a thread.
    let workers: usize = match args.iter().position(|a| a == "--workers") {
        None => 2,
        Some(at) => match args.get(at + 1) {
            Some(value) => match value.parse() {
                Ok(workers) if (1..=hfl::MAX_THREADS).contains(&workers) => workers,
                Ok(_) => {
                    eprintln!(
                        "hfl-serve: --workers: {value} is outside the bounds 1..={}",
                        hfl::MAX_THREADS
                    );
                    std::process::exit(2)
                }
                Err(_) => {
                    eprintln!("hfl-serve: --workers: {value:?} is not a valid number");
                    std::process::exit(2)
                }
            },
            None => {
                eprintln!("hfl-serve: --workers: missing value");
                std::process::exit(2)
            }
        },
    };

    // The std library has no signal API; registering the classic
    // signal(2) handler directly keeps the daemon dependency-free.
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }

    let config = DaemonConfig::new(addr, data_dir).with_workers(workers);
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
