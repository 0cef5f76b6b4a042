//! The benchmark runner: one workload, one seed, one JSON result line.
//!
//! ```text
//! hdpbench --workload video|jobs-warm|jobs-cold --seed N --seconds S --trace 0|1 [--out DIR]
//! ```

use std::process::ExitCode;

#[global_allocator]
static ALLOC: hdpbench::alloc::Counting = hdpbench::alloc::Counting;

fn main() -> ExitCode {
    let run = || -> Result<String, String> {
        let args = hdpbench::Args::parse(std::env::args().skip(1))?;
        let result = hdpbench::run_workload(&args)?;
        let id = hdpbench::report::RunId {
            workload: args.workload.clone(),
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            host_threads: std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get),
        };
        hdpbench::report::write_and_check(&args.out, &id, &result)
    };
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hdpbench: {e}");
            ExitCode::FAILURE
        }
    }
}
