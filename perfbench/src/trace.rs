//! Spans around the benchmark's calls into the system's public functions.
//!
//! Every timing the benchmark reports is the duration of one of these
//! spans; they are kept in memory and, in a traced run, written out when
//! the run ends. The clock is read only here, never inside the system.

use std::time::Instant;

use crate::stats::{json_num, json_str};

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed call. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// The job the span belongs to; `None` for set-up and probes.
    pub job: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        job: Option<u32>,
    ) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            job,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.secs()
    }

    /// Seconds since the tracer was created.
    pub fn elapsed_s(&self) -> f64 {
        self.now_ns() as f64 * 1e-9
    }

    /// Durations, in seconds, of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// The spans as a JSON array, each with its self time.
    pub fn to_json(&self) -> String {
        let selfs = self_times_ns(&self.spans);
        let rows: Vec<String> = self
            .spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                format!(
                    "{{\"id\":{id},\"name\":{},\"parent\":{},\"job\":{},\"start_s\":{},\"end_s\":{},\"self_s\":{}}}",
                    json_str(s.name),
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.job.map_or("null".to_string(), |j| j.to_string()),
                    json_num(s.start_ns as f64 * 1e-9),
                    json_num(s.end_ns as f64 * 1e-9),
                    json_num(self_ns as f64 * 1e-9),
                )
            })
            .collect();
        format!("[\n{}\n]", rows.join(",\n"))
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its direct children covers. Children are clipped to
/// the parent's interval, and overlapping children count once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            parent,
            job: None,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(None, 0, 100),
            // Two overlapping children cover [10, 50): 40 ns, not 50.
            span(Some(0), 10, 30),
            span(Some(0), 20, 50),
            span(Some(0), 60, 70),
            // A grandchild does not count against the root.
            span(Some(3), 62, 68),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 30, 4, 6]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![
            span(None, 10, 20),
            span(Some(0), 0, 15),
            span(Some(0), 18, 40),
        ];
        assert_eq!(self_times_ns(&spans)[0], 3);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = vec![span(None, 5, 9)];
        assert_eq!(self_times_ns(&spans), vec![4]);
        assert_eq!(spans[0].secs(), 4e-9);
    }

    #[test]
    fn tracer_nests_and_times() {
        let mut t = Tracer::new();
        let root = t.begin("job", None, Some(1));
        let child = t.begin("call", Some(root), Some(1));
        t.end(child);
        t.end(root);
        let s = &t.spans;
        assert_eq!(s[child].parent, Some(root));
        assert!(s[root].start_ns <= s[child].start_ns && s[child].end_ns <= s[root].end_ns);
        assert_eq!(t.durations("call").len(), 1);
        assert!(t
            .to_json()
            .contains("\"name\":\"call\",\"parent\":0,\"job\":1"));
    }
}
