//! A structured, leveled logger: `key=value` lines on stderr.
//!
//! The same in-tree discipline as the metrics registry — no external
//! crates, one process-global [`Logger`] with an atomic level, and a
//! line format machines can split and humans can read:
//!
//! ```text
//! ts=1754650000.123 level=info target=netd trace=4bf92f3577b34da6a3ce929d0e0e4736 span=00f067aa0ba902b7 msg="listening" addr=127.0.0.1:7171
//! ```
//!
//! Every line carries `trace=`/`span=` fields — the ids of the active
//! [`SpanContext`] when the caller has one, `-`
//! otherwise — so a grep for a trace id walks a request's log lines and
//! its span timeline together. Values are quoted only when they contain
//! whitespace, quotes, or `=`, so the common case stays clean.

use crate::trace::SpanContext;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, ordered. The logger drops lines below its level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Verbose diagnostics (per-request, per-generation chatter).
    Debug,
    /// Normal operational events (startup, shutdown, job lifecycle).
    Info,
    /// Something degraded but the service continues (slow spans,
    /// transient accept failures).
    Warn,
    /// Something failed (a subsystem could not start, an I/O path died).
    Error,
}

impl LogLevel {
    /// Parses a level name, case-insensitively (`debug`, `info`,
    /// `warn`/`warning`, `error`).
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "debug" => Some(LogLevel::Debug),
            "info" => Some(LogLevel::Info),
            "warn" | "warning" => Some(LogLevel::Warn),
            "error" => Some(LogLevel::Error),
            _ => None,
        }
    }

    /// The lowercase label rendered into log lines.
    pub fn label(self) -> &'static str {
        match self {
            LogLevel::Debug => "debug",
            LogLevel::Info => "info",
            LogLevel::Warn => "warn",
            LogLevel::Error => "error",
        }
    }
}

/// The process logger: an atomic level filter in front of stderr.
///
/// Use [`global`] rather than constructing one per call site — the
/// daemon's `--log-level` flag sets the global level once and every
/// subsystem (accept loop, registry, tracer slow-span warnings)
/// inherits it.
#[derive(Debug)]
pub struct Logger {
    level: AtomicUsize,
}

static GLOBAL: Logger = Logger { level: AtomicUsize::new(LogLevel::Info as usize) };

/// The process-global logger.
pub fn global() -> &'static Logger {
    &GLOBAL
}

impl Logger {
    /// A logger starting at `Info` (for tests; production code uses
    /// [`global`]).
    pub fn new() -> Logger {
        Logger { level: AtomicUsize::new(LogLevel::Info as usize) }
    }

    /// Sets the minimum level that reaches stderr.
    pub fn set_level(&self, level: LogLevel) {
        self.level.store(level as usize, Ordering::Relaxed);
    }

    /// The current minimum level.
    pub fn level(&self) -> LogLevel {
        match self.level.load(Ordering::Relaxed) {
            0 => LogLevel::Debug,
            1 => LogLevel::Info,
            2 => LogLevel::Warn,
            _ => LogLevel::Error,
        }
    }

    /// Whether a line at `level` would be emitted.
    pub fn enabled(&self, level: LogLevel) -> bool {
        level >= self.level()
    }

    /// Emits one structured line to stderr (dropped when below the
    /// logger's level). `target` names the subsystem (`netd`, `net`,
    /// `registry`, `trace`); `ctx` stamps the trace/span ids when the
    /// caller is inside a span.
    pub fn log(
        &self,
        level: LogLevel,
        target: &str,
        ctx: Option<SpanContext>,
        msg: &str,
        fields: &[(&str, String)],
    ) {
        if !self.enabled(level) {
            return;
        }
        eprintln!("{}", format_line(level, target, ctx, msg, fields));
    }
}

impl Default for Logger {
    fn default() -> Logger {
        Logger::new()
    }
}

/// Renders one log line (pure; what [`Logger::log`] writes). Exposed so
/// tests can pin the format without capturing stderr.
pub fn format_line(
    level: LogLevel,
    target: &str,
    ctx: Option<SpanContext>,
    msg: &str,
    fields: &[(&str, String)],
) -> String {
    let now = SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or_default();
    let mut line = String::with_capacity(96);
    let _ = write!(
        line,
        "ts={}.{:03} level={} target={}",
        now.as_secs(),
        now.subsec_millis(),
        level.label(),
        quote(target)
    );
    match ctx {
        Some(ctx) => {
            let _ = write!(line, " trace={} span={}", ctx.trace, ctx.span);
        }
        None => line.push_str(" trace=- span=-"),
    }
    let _ = write!(line, " msg={}", quote(msg));
    for (key, value) in fields {
        let _ = write!(line, " {key}={}", quote(value));
    }
    line
}

/// Quotes a value only when the bare form would be ambiguous to split
/// on whitespace/`=`.
fn quote(v: &str) -> String {
    let bare = !v.is_empty()
        && v.chars().all(|c| !c.is_whitespace() && c != '"' && c != '=' && !c.is_control());
    if bare {
        v.to_owned()
    } else {
        let mut out = String::with_capacity(v.len() + 2);
        out.push('"');
        for c in v.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanContext, SpanId, TraceId};

    #[test]
    fn levels_parse_and_order() {
        assert_eq!(LogLevel::parse("INFO"), Some(LogLevel::Info));
        assert_eq!(LogLevel::parse(" warning "), Some(LogLevel::Warn));
        assert_eq!(LogLevel::parse("fatal"), None);
        assert!(LogLevel::Debug < LogLevel::Info);
        assert!(LogLevel::Warn < LogLevel::Error);
    }

    #[test]
    fn logger_filters_below_its_level() {
        let logger = Logger::new();
        assert!(logger.enabled(LogLevel::Info));
        assert!(!logger.enabled(LogLevel::Debug));
        logger.set_level(LogLevel::Error);
        assert_eq!(logger.level(), LogLevel::Error);
        assert!(!logger.enabled(LogLevel::Warn));
        logger.set_level(LogLevel::Debug);
        assert!(logger.enabled(LogLevel::Debug));
    }

    #[test]
    fn lines_carry_level_target_trace_and_fields() {
        let ctx = SpanContext {
            trace: TraceId(0x4bf9_2f35_77b3_4da6_a3ce_929d_0e0e_4736),
            span: SpanId(0x00f0_67aa_0ba9_02b7),
        };
        let line = format_line(
            LogLevel::Warn,
            "netd",
            Some(ctx),
            "slow span",
            &[("name", "job.run".to_owned()), ("dur_ms", "1500.0".to_owned())],
        );
        assert!(line.starts_with("ts="), "{line}");
        assert!(line.contains(" level=warn target=netd "), "{line}");
        assert!(line.contains(" trace=4bf92f3577b34da6a3ce929d0e0e4736 "), "{line}");
        assert!(line.contains(" span=00f067aa0ba902b7 "), "{line}");
        assert!(line.contains(" msg=\"slow span\" name=job.run dur_ms=1500.0"), "{line}");
    }

    #[test]
    fn spanless_lines_mark_ids_absent_and_quote_awkward_values() {
        let line = format_line(
            LogLevel::Info,
            "net",
            None,
            "accept failed",
            &[("err", "too many open files (os error 24)".to_owned()), ("empty", String::new())],
        );
        assert!(line.contains(" trace=- span=- "), "{line}");
        assert!(line.contains(" err=\"too many open files (os error 24)\""), "{line}");
        assert!(line.ends_with(" empty=\"\""), "{line}");
        // Quotes and backslashes survive escaping.
        assert_eq!(quote("a \"b\" \\c"), "\"a \\\"b\\\" \\\\c\"");
        assert_eq!(quote("plain-value"), "plain-value");
        assert_eq!(quote("k=v"), "\"k=v\"");
    }
}
