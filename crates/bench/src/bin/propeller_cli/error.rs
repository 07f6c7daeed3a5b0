//! What a CLI invocation can fail with, and the file-writing helpers
//! whose failures it reports.

use std::path::Path;
use std::process::ExitCode;

/// What went wrong in a CLI invocation, with a `source()` chain down
/// to the failing layer. Every handler returns it and `main` renders it
/// through [`fail`] — no `unwrap`/`expect` on state that a run can
/// actually reach.
#[derive(Debug)]
pub enum CliError {
    /// The invocation does not fit the subcommand's flag table row.
    Usage { detail: String, usage: String },
    /// The invocation names something that does not exist or does not
    /// parse: a benchmark, a fault plan, an event, a function.
    Input(String),
    /// A library step reported failure as text.
    Step { step: &'static str, detail: String },
    /// An internal pipeline contract broke: an artifact that the
    /// completed phases must have produced is absent.
    MissingArtifact { what: &'static str, needs: &'static str },
    Pipeline { source: propeller::PipelineError },
    Serve { source: propeller_serve::ServeError },
    Io { path: String, source: std::io::Error },
    Parse { path: String, detail: String },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage { detail, usage } => write!(f, "{detail}\n{usage}"),
            CliError::Input(detail) => f.write_str(detail),
            CliError::Step { step, detail } => write!(f, "{step} failed: {detail}"),
            CliError::MissingArtifact { what, needs } => write!(
                f,
                "internal contract broken: {what} is missing although {needs}; \
                 please report this"
            ),
            CliError::Pipeline { .. } => write!(f, "pipeline failed"),
            CliError::Serve { .. } => write!(f, "relink service failed"),
            CliError::Io { path, .. } => write!(f, "cannot access {path}"),
            CliError::Parse { path, detail } => write!(f, "cannot parse {path}: {detail}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Pipeline { source } => Some(source),
            CliError::Serve { source } => Some(source),
            CliError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<propeller::PipelineError> for CliError {
    fn from(source: propeller::PipelineError) -> Self {
        CliError::Pipeline { source }
    }
}

impl From<propeller_serve::ServeError> for CliError {
    fn from(source: propeller_serve::ServeError) -> Self {
        CliError::Serve { source }
    }
}

/// Renders `e` and its whole `source()` chain to stderr and returns
/// the failure exit code.
pub fn fail(e: CliError) -> ExitCode {
    eprintln!("error: {e}");
    let mut cur = std::error::Error::source(&e);
    while let Some(s) = cur {
        eprintln!("  caused by: {s}");
        cur = s.source();
    }
    ExitCode::FAILURE
}

/// `Option` → `Result` for artifacts the completed phases guarantee.
pub fn require<T>(opt: Option<T>, what: &'static str, needs: &'static str) -> Result<T, CliError> {
    opt.ok_or(CliError::MissingArtifact { what, needs })
}

/// Maps a textual library failure of `step` into a [`CliError`].
pub fn step<T>(step: &'static str, r: Result<T, String>) -> Result<T, CliError> {
    r.map_err(|detail| CliError::Step { step, detail })
}

/// The exit code of a gate: failure when `failed`.
pub fn gate(failed: bool) -> ExitCode {
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

pub fn create_dir(dir: impl AsRef<Path>) -> Result<(), CliError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)
        .map_err(|source| CliError::Io { path: dir.display().to_string(), source })
}

/// Writes `contents` to `path` without announcing it.
pub fn write_quiet(path: impl AsRef<Path>, contents: String) -> Result<(), CliError> {
    let path = path.as_ref();
    std::fs::write(path, contents)
        .map_err(|source| CliError::Io { path: path.display().to_string(), source })
}

/// Writes `contents` to `path` and prints `wrote <path>`.
pub fn write_file(path: impl AsRef<Path>, contents: String) -> Result<(), CliError> {
    write_quiet(&path, contents)?;
    println!("wrote {}", path.as_ref().display());
    Ok(())
}

/// Reads `path` and parses it with `parse`.
pub fn load<T, E: std::fmt::Display>(
    path: &str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<T, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|source| CliError::Io { path: path.to_string(), source })?;
    parse(&text).map_err(|e| CliError::Parse { path: path.to_string(), detail: e.to_string() })
}
