//! `qaprox` — the command-line face of the approximate-circuit toolkit.
//!
//! ```text
//! qaprox synth    --workload tfim|tfim-r|grover|toffoli --qubits N [--steps K]
//!                 [--max-cnots D] [--max-hs T]        synthesize + list population
//! qaprox run      --workload ... --device NAME [--hardware] [--cx-error E]
//!                 [--steps K] [--epsilon E]            evaluate population vs reference
//! qaprox serve    [--addr H:P] [--workers N] [--queue N]
//!                 [--timeout-secs T] [--journal DIR]   start the TCP job service
//! qaprox submit   --op synth|run [--addr H:P] [--no-wait]
//!                 [synth/run options]                  submit a job, print the result
//! qaprox store    stats | gc --max-bytes N             inspect/trim the artifact store
//! qaprox devices                                       list calibration snapshots
//! qaprox report   --device NAME                        print the noise report
//! qaprox show     --workload ... [--steps K]           dump the reference as QASM
//! qaprox lint     FILE... [--format text|json] [--device NAME]
//!                 [--allow/--warn/--deny CODE,...]     static analysis
//! qaprox analyze  [FILE...] [--device NAME] [--min-fidelity F]
//!                                                      static noise-budget estimate
//! qaprox equiv    A.qasm B.qasm [--device NAME] [--epsilon E]
//!                                                      certified noisy equivalence check
//! ```
//!
//! The analysis subcommands (`lint`, `analyze`, `equiv`) share an exit-code
//! contract: 1 operational failure, 2 bad command-line arguments, 3
//! deny-level findings — so CI can tell "found problems" from "could not
//! run".
//!
//! Global options: `--jobs N` caps worker threads (default `QAPROX_JOBS`,
//! then the legacy `QAPROX_THREADS`, then all cores); `--store DIR` / `--no-store` select the content-addressed
//! artifact store (default `QAPROX_STORE`, then `.qaprox-store`) that makes
//! `synth`/`run` cache-first. See `docs/SERVE.md` for the service protocol.
//!
//! Every subcommand prints CSV-ish rows; see `docs/TUTORIAL.md` for the API
//! behind each step.

mod args;
mod commands;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "help" {
        print!("{}", commands::USAGE);
        return;
    }
    let parsed = match args::parse(argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", commands::USAGE);
            std::process::exit(2);
        }
    };
    if let Err(e) = commands::dispatch(&parsed) {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
}
