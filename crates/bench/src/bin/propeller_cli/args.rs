//! The one flag parser: every subcommand declares its operands and
//! flags in a [`Command`] row, and [`Args::parse`] checks an
//! invocation against that row.

use crate::error::CliError;
use propeller::FaultPlan;
use propeller_synth::{spec_by_name, BenchmarkSpec};
use std::process::ExitCode;
use std::str::FromStr;

/// One subcommand: its usage shape and its handler.
pub struct Command {
    pub name: &'static str,
    /// Positional operands as the usage line shows them.
    pub operands: &'static str,
    /// Minimum and maximum operand count.
    pub arity: (usize, usize),
    /// The accepted flags, space-separated; a flag followed by a
    /// metavariable (`--scale S`) takes a value, a bare one is a switch.
    /// Any other flag is a usage error.
    pub flags: &'static str,
    pub run: fn(&Args) -> Result<ExitCode, CliError>,
}

impl Command {
    /// Each accepted flag with its metavariable, if it takes a value.
    fn decls(&self) -> impl Iterator<Item = (&'static str, Option<&'static str>)> {
        let mut words = self.flags.split_whitespace().peekable();
        std::iter::from_fn(move || {
            let flag = words.next()?;
            Some((flag, words.next_if(|w| !w.starts_with("--"))))
        })
    }

    /// The usage line, built from the row.
    pub fn usage(&self) -> String {
        let mut line = format!("usage: propeller_cli {}", self.name);
        if !self.operands.is_empty() {
            line.push(' ');
            line.push_str(self.operands);
        }
        for (flag, metavar) in self.decls() {
            match metavar {
                Some(m) => line.push_str(&format!(" [{flag} {m}]")),
                None => line.push_str(&format!(" [{flag}]")),
            }
        }
        line
    }

    fn usage_error(&self, detail: String) -> CliError {
        CliError::Usage { detail, usage: self.usage() }
    }
}

/// A parsed invocation: operands in order plus each given flag's raw
/// value (the last occurrence wins).
pub struct Args {
    cmd: &'static Command,
    operands: Vec<String>,
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    pub fn parse(
        cmd: &'static Command,
        mut argv: impl Iterator<Item = String>,
    ) -> Result<Args, CliError> {
        let mut args = Args { cmd, operands: Vec::new(), flags: Vec::new() };
        while let Some(tok) = argv.next() {
            if !tok.starts_with("--") {
                args.operands.push(tok);
                continue;
            }
            let Some((name, metavar)) = cmd.decls().find(|(f, _)| *f == tok) else {
                return Err(cmd.usage_error(format!("{} does not accept {tok}", cmd.name)));
            };
            let value = match metavar {
                Some(_) => Some(
                    argv.next().ok_or_else(|| cmd.usage_error(format!("{name} needs a value")))?,
                ),
                None => None,
            };
            args.flags.push((name, value));
        }
        let (min, max) = cmd.arity;
        if !(min..=max).contains(&args.operands.len()) {
            return Err(cmd.usage_error(format!("{} takes {}", cmd.name, cmd.operands)));
        }
        Ok(args)
    }

    /// The `i`th operand.
    pub fn operand(&self, i: usize) -> Option<&str> {
        self.operands.get(i).map(String::as_str)
    }

    pub fn operands(&self) -> &[String] {
        &self.operands
    }

    /// Whether the switch (or valued flag) `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }

    /// The raw value of `name`, if given.
    pub fn str(&self, name: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(n, _)| *n == name).and_then(|(_, v)| v.as_deref())
    }

    /// The value of `name` parsed as `T`; a value that does not parse
    /// is a usage error.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.str(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| self.cmd.usage_error(format!("invalid value {v:?} for {name}")))
            })
            .transpose()
    }

    /// Overwrites `slot` with the value of `name` when given.
    pub fn set<T: FromStr>(&self, name: &str, slot: &mut T) -> Result<(), CliError> {
        if let Some(v) = self.get(name)? {
            *slot = v;
        }
        Ok(())
    }

    /// `--jobs`: a positive worker count.
    pub fn jobs(&self) -> Result<Option<usize>, CliError> {
        match self.get("--jobs")? {
            Some(0) => Err(self.cmd.usage_error("--jobs must be positive".into())),
            jobs => Ok(jobs),
        }
    }

    /// `--faults`: the parsed fault plan.
    pub fn faults(&self) -> Result<Option<FaultPlan>, CliError> {
        self.str("--faults")
            .map(|spec| {
                FaultPlan::parse(spec)
                    .map_err(|e| CliError::Input(format!("invalid --faults spec: {e}")))
            })
            .transpose()
    }

    /// The benchmark operand, `clang` when it is optional and absent.
    pub fn benchmark(&self) -> &str {
        self.operand(0).unwrap_or("clang")
    }

    /// The spec of [`Args::benchmark`].
    pub fn spec(&self) -> Result<BenchmarkSpec, CliError> {
        let name = self.benchmark();
        spec_by_name(name)
            .ok_or_else(|| CliError::Input(format!("unknown benchmark {name:?} (try `list`)")))
    }
}
