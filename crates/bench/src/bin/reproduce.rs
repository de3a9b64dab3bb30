//! Regenerates the paper's evaluation: prints the tables of every
//! artefact in [`s4d_bench::figures::FIGURES`], or of the ids named on the
//! command line. This is the source of EXPERIMENTS.md's measured columns.
//!
//! ```text
//! cargo run --release -p s4d-bench --bin reproduce                  # all, ÷8
//! cargo run --release -p s4d-bench --bin reproduce -- fig09_hpio    # one
//! cargo run --release -p s4d-bench --bin reproduce -- --list        # the ids
//! S4D_SCALE_FACTOR=1 cargo run --release -p s4d-bench --bin reproduce
//! ```

use std::process::ExitCode;

use s4d_bench::figures::{Figure, FIGURES};
use s4d_bench::{table, Scale};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for figure in FIGURES {
            println!("{}", figure.id);
        }
        return ExitCode::SUCCESS;
    }
    let scale = match Scale::from_env() {
        Ok(scale) => scale,
        Err(e) => {
            eprintln!("reproduce: {e}");
            return ExitCode::from(2);
        }
    };
    let mut selected: Vec<&Figure> = Vec::new();
    for id in &args {
        match FIGURES.iter().find(|f| f.id == id) {
            Some(figure) => selected.push(figure),
            None => {
                eprintln!("reproduce: unknown id {id:?} (see --list)");
                return ExitCode::from(2);
            }
        }
    }
    if selected.is_empty() {
        selected.extend(FIGURES);
    }
    println!("# scale factor {}", scale.factor());
    for figure in selected {
        for t in (figure.run)(scale) {
            print!("{}", table::render(&t));
        }
    }
    ExitCode::SUCCESS
}
