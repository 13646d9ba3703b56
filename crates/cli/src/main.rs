//! `ssd` — the semistructured-data command line.
//!
//! ```text
//! ssd stats     DATA                       database statistics
//! ssd query     DATA QUERY                 run a select-from-where query
//! ssd datalog   DATA PROGRAM [PRED]        run a datalog program
//! ssd browse    DATA string TEXT           §1.3: find a string
//! ssd browse    DATA ints THRESHOLD        §1.3: ints greater than N
//! ssd browse    DATA attrs PREFIX          §1.3: attribute-name prefix
//! ssd rewrite   DATA PROGRAM               structural-recursion rewrite
//! ssd schema    DATA                       extract a schema
//! ssd conforms  DATA SCHEMA_DATA           does DATA conform to the schema
//!                                          extracted from SCHEMA_DATA?
//! ssd dataguide DATA                       build the strong DataGuide
//! ssd dot       DATA                       Graphviz rendering
//! ssd fmt       DATA                       canonicalise the literal syntax
//! ```
//!
//! `DATA` is a file in the literal syntax (`{Movie: {Title: "C"}}`, with
//! `@x = ...` cycle markers), or `-` for stdin. `QUERY`/`PROGRAM`
//! arguments are taken literally, or read from a file when prefixed with
//! `@` (e.g. `@queries/titles.ssd`).

use ssd_cli::{run, write_output, CliError};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args, &mut std::io::stdin().lock()) {
        Ok(output) => match write_output(&mut std::io::stdout().lock(), &output) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: writing output: {e}");
                ExitCode::FAILURE
            }
        },
        Err(CliError::Usage(msg)) => {
            eprintln!("usage error: {msg}\n\nrun `ssd help` for commands");
            ExitCode::from(2)
        }
        Err(CliError::Failed(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
