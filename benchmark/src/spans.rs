//! Spans the benchmark records from its own files, around its calls into the
//! program: kept in memory during the window, written out as JSON lines after.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Spans kept per traced run; later spans are dropped (and counted).
pub const MAX_SPANS: usize = 1_000_000;

/// One span.  Spans of one op or burst share `op_id`; `parent` names the span
/// of the same `op_id` that encloses this one.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub op_id: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
pub struct Recorder {
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl Recorder {
    pub fn push(
        &mut self,
        op_id: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.spans.len() < MAX_SPANS {
            self.spans.push(Span {
                op_id,
                name,
                parent,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    pub fn absorb(&mut self, other: Recorder) {
        let room = MAX_SPANS - self.spans.len();
        self.dropped += other.dropped + other.spans.len().saturating_sub(room) as u64;
        self.spans.extend(other.spans.into_iter().take(room));
    }
}

/// Per span name: how many spans, their total duration, and their total self
/// time — duration minus the part of the interval their children cover.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    // Children of (op_id, parent name), clipped to the parent when summed.
    let mut children: BTreeMap<(u64, &'static str), Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry((s.op_id, p))
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&(s.op_id, s.name))
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur - covered;
    }
    out
}

/// Length of the union of `intervals` inside `[lo, hi]` — at most `hi − lo`, so
/// a parent's self time is never negative even when children overlap or stick out.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut cursor) = (0, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
        writeln!(
            w,
            "{{\"op_id\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.op_id, s.name, parent, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        op_id: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            op_id,
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn children_are_subtracted_per_op() {
        let spans = [
            span(1, "op", None, 100, 200),
            span(1, "gen", Some("op"), 100, 130),
            span(1, "call", Some("op"), 130, 195),
            // Same names, another op: must not be charged to op 1.
            span(2, "op", None, 300, 340),
            span(2, "call", Some("op"), 310, 340),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["op"],
            SelfTime {
                count: 2,
                total_ns: 140,
                self_ns: 5 + 10
            }
        );
        assert_eq!(
            t["gen"],
            SelfTime {
                count: 1,
                total_ns: 30,
                self_ns: 30
            }
        );
        assert_eq!(
            t["call"],
            SelfTime {
                count: 2,
                total_ns: 95,
                self_ns: 95
            }
        );
        // Self times of one op add up to its span.
        assert_eq!(t["op"].self_ns + t["gen"].self_ns + t["call"].self_ns, 140);
    }

    #[test]
    fn parents_never_go_negative() {
        let spans = [
            span(1, "burst", None, 100, 200),
            // Overlapping children, one sticking out on each side.
            span(1, "gen", Some("burst"), 50, 150),
            span(1, "pipeline", Some("burst"), 120, 260),
        ];
        assert_eq!(self_times(&spans)["burst"].self_ns, 0);
        // A child entirely outside its parent covers nothing of it.
        let outside = [
            span(1, "burst", None, 100, 200),
            span(1, "gen", Some("burst"), 10, 90),
        ];
        assert_eq!(self_times(&outside)["burst"].self_ns, 100);
    }

    #[test]
    fn recorder_caps_and_counts() {
        let mut a = Recorder {
            spans: vec![span(0, "op", None, 0, 1); MAX_SPANS - 1],
            dropped: 0,
        };
        let mut b = Recorder::default();
        b.push(1, "op", None, 0, 1);
        b.push(2, "op", None, 0, 1);
        a.absorb(b);
        assert_eq!((a.spans.len(), a.dropped), (MAX_SPANS, 1));
        a.push(3, "op", None, 0, 1);
        assert_eq!(a.dropped, 2);
    }
}
