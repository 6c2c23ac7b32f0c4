//! `obs` — the workspace's zero-dependency tracing + metrics core.
//!
//! Three pieces (DESIGN §10):
//!
//! * **Spans & events** — hierarchical [`Span`]s (`tune` → `walk` →
//!   `verify` → `codegen.emit`) and instantaneous points (`walk.step`)
//!   with structured key/value fields, recorded through one pluggable
//!   process-global [`Collector`] ([`RingCollector`] in memory, the
//!   [`FlightRecorder`]'s ring, or none). With no collector installed the
//!   `span!`/`event!`/`log!` macros cost one relaxed atomic load and
//!   evaluate none of their field expressions.
//! * **Metrics** — a global registry of [`Counter`]s, [`Gauge`]s and
//!   µs-bucket [`Histogram`]s named `gensor_<crate>_<name>`, unifying the
//!   cache, daemon, and verifier statistics.
//! * **Exporters** — [`chrome::trace_json`] (Perfetto/chrome://tracing,
//!   with [`chrome::trace_json_multi`] merging several processes' rings
//!   into one view), [`prometheus::render`] (text exposition), and
//!   [`convergence::walk_csv`] (the paper's Fig. 8 convergence traces).
//!
//! Two distributed-plane pieces sit on top: [`trace::TraceContext`] (the
//! two-integer identity a request carries across process hops) and
//! [`flight::FlightRecorder`] (the always-on ring every daemon dumps to a
//! JSONL sidecar on panic, failpoint trip, `SIGUSR1`, or drain).
//!
//! The crate is std-only so every other crate can depend on it without
//! dragging the shim graph along.

pub mod chrome;
mod collector;
pub mod convergence;
mod event;
pub mod flight;
pub(crate) mod json;
pub mod metrics;
pub mod prometheus;
pub mod trace;

pub use collector::{
    emit_log, install, log_enabled, record, record_point, render_jsonl, tracing_enabled, uninstall,
    Collector, RingCollector, Span,
};
pub use event::{current_tid, intern_name, now_us, Event, EventKind, Level, Value};
pub use flight::FlightRecorder;
pub use metrics::{counter, gauge, histogram_us, Counter, Gauge, Histogram};
pub use trace::TraceContext;

/// Open a span: `let _sp = span!("tune", op = op.label(), chains = 4u64);`
///
/// Returns a [`Span`] guard that closes on drop. Field expressions are
/// evaluated only when tracing is enabled; field keys become the literal
/// identifier names.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::tracing_enabled() {
            $crate::Span::enter(
                $name,
                vec![$((stringify!($k), $crate::Value::from($v))),*],
            )
        } else {
            $crate::Span::disabled($name)
        }
    };
}

/// Record an instantaneous point event:
/// `event!("walk.step", step = 3u64, accepted = true);`
///
/// Field expressions are evaluated only when tracing is enabled.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::tracing_enabled() {
            $crate::record_point(
                $name,
                vec![$((stringify!($k), $crate::Value::from($v))),*],
            );
        }
    };
}

/// Leveled logging for library crates: `log!(Warn, "could not persist {p}")`.
///
/// Routed through the collector when tracing; `Warn`/`Error` fall back to
/// stderr otherwise; `Debug`/`Info` are dropped when nothing collects. The
/// format arguments are evaluated only when the line will be observed.
#[macro_export]
macro_rules! log {
    ($level:ident, $($fmt:tt)*) => {
        if $crate::log_enabled($crate::Level::$level) {
            $crate::emit_log($crate::Level::$level, format!($($fmt)*));
        }
    };
}

/// Bump a cached global counter by 1. The `Arc` handle is registered once
/// per call site and cached in a `OnceLock`, so the steady-state cost is
/// one relaxed atomic add.
#[macro_export]
macro_rules! counter_inc {
    ($name:expr, $help:expr) => {{
        static __C: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        __C.get_or_init(|| $crate::counter($name, $help)).inc();
    }};
}

/// Bump a cached global counter by `n` (see [`counter_inc!`]).
#[macro_export]
macro_rules! counter_add {
    ($name:expr, $help:expr, $n:expr) => {{
        static __C: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        __C.get_or_init(|| $crate::counter($name, $help)).add($n);
    }};
}

/// Record `us` into a cached global microsecond histogram (see
/// [`counter_inc!`] for the caching scheme).
#[macro_export]
macro_rules! histogram_record_us {
    ($name:expr, $help:expr, $us:expr) => {{
        static __H: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        __H.get_or_init(|| $crate::histogram_us($name, $help))
            .record_us($us);
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    // Serialize with the collector tests in `collector.rs`: both mutate
    // the process-global collector slot.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static L: std::sync::Mutex<()> = std::sync::Mutex::new(());
        L.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn macros_evaluate_fields_lazily() {
        let _g = lock();
        let mut evaluated = false;
        {
            let _sp = span!(
                "lazy",
                x = {
                    evaluated = true;
                    1u64
                }
            );
        }
        event!(
            "lazy.point",
            y = {
                evaluated = true;
                2u64
            }
        );
        log!(Info, "{}", {
            evaluated = true;
            "never"
        });
        assert!(!evaluated, "disabled macros must not evaluate fields");
    }

    #[test]
    fn macros_record_through_an_installed_collector() {
        let _g = lock();
        let ring = Arc::new(RingCollector::new(16));
        install(ring.clone());
        {
            let sp = span!("outer", op = "gemm");
            assert!(sp.id() > 0);
            event!("outer.tick", n = 1u64);
            log!(Debug, "dbg {}", 42);
        }
        uninstall();
        let evs = ring.events();
        assert_eq!(evs.len(), 4, "{evs:?}");
        assert_eq!(evs[0].field("op"), Some(&Value::Str("gemm".into())));
        assert!(matches!(
            &evs[2].kind,
            EventKind::Log {
                level: Level::Debug,
                ..
            }
        ));
    }

    #[test]
    fn metric_macros_register_and_accumulate() {
        counter_inc!("obs_lib_test_total", "test counter");
        counter_add!("obs_lib_test_total", "test counter", 4);
        assert!(counter("obs_lib_test_total", "test counter").get() >= 5);
        histogram_record_us!("obs_lib_test_us", "test histogram", 75);
        assert!(histogram_us("obs_lib_test_us", "test histogram").count() >= 1);
    }
}
