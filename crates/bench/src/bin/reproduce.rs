//! `reproduce [--quick] [ARTIFACT…]`: prints each named artifact of
//! `dp_bench::artifacts` (all of them when none is named) and writes its
//! CSVs under `results/`; `--quick` trains the short schedule. An unknown
//! name lists the known ones.

use dp_bench::artifacts::{run, Context};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut names: Vec<&str> = args.iter().map(String::as_str).collect();
    let quick = names.contains(&"--quick");
    names.retain(|a| *a != "--quick");
    let out = &mut std::io::stdout().lock();
    run(&names, &Context::new(quick), "results".as_ref(), out).unwrap_or_else(|e| {
        eprintln!("reproduce: {e}");
        std::process::exit(1)
    })
}
