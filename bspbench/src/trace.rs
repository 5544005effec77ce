//! In-memory span recorder for the traced run.
//!
//! One span per call from the benchmark into a library layer: name,
//! start, end and the span that was open when it began. Spans stay in
//! memory and are written once, as Chrome trace-event JSON, when the
//! benchmark ends. A disabled recorder only runs the closure, so the
//! untraced loop pays one branch per call.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// Microseconds since the recorder was created.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Run `f` inside a span called `name` (built only when enabled).
    pub fn span<R>(&self, name: impl FnOnce() -> String, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name(),
                start_us: self.now_us(),
                end_us: f64::NAN,
                parent: self.open.borrow().last().copied(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_us = self.now_us();
        out
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover (children never overlap on one thread).
    pub fn self_times_us(&self) -> Vec<f64> {
        let spans = self.spans.borrow();
        let mut own: Vec<f64> = spans.iter().map(|s| s.end_us - s.start_us).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                own[p] -= s.end_us - s.start_us;
            }
        }
        own
    }

    /// The spans as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto). The parent link rides in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name.replace('"', "'"),
                s.start_us,
                s.end_us - s.start_us,
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span(
            || "outer".into(),
            || {
                t.span(
                    || "a".into(),
                    || std::thread::sleep(std::time::Duration::from_millis(2)),
                );
                t.span(|| "b".into(), || ());
            },
        );
        let spans = t.spans().clone();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let own = t.self_times_us();
        let outer = spans[0].end_us - spans[0].start_us;
        assert!(own[0] >= 0.0 && own[0] < outer);
        assert!(t.chrome_json().contains("\"name\":\"a\""));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span(|| unreachable!(), || 7), 7);
        assert!(t.spans().is_empty());
    }
}
