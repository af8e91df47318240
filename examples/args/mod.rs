//! Strict positional arguments for the examples: a value that does not
//! parse, is out of range, or is one too many exits 2 with the
//! example's usage line instead of running with a default.

use std::str::FromStr;

/// An example's positional arguments, checked against its usage line.
pub struct Positional {
    usage: &'static str,
    args: Vec<String>,
}

impl Positional {
    /// Reads the command line, refusing more than `max` arguments.
    pub fn from_env(usage: &'static str, max: usize) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let positional = Self { usage, args };
        if let Some(extra) = positional.args.get(max) {
            positional.fail(&format!("unexpected argument '{extra}'"));
        }
        positional
    }

    /// Argument `i` parsed and accepted by `valid`, or `default` when it
    /// is absent.
    pub fn get<T: FromStr>(&self, i: usize, name: &str, default: T, valid: fn(&T) -> bool) -> T {
        let Some(raw) = self.args.get(i) else {
            return default;
        };
        match raw.parse() {
            Ok(value) if valid(&value) => value,
            _ => self.fail(&format!("invalid {name} '{raw}'")),
        }
    }

    fn fail(&self, msg: &str) -> ! {
        eprintln!("{msg}\nusage: {}", self.usage);
        std::process::exit(2);
    }
}
