//! Outside-in spans: the benchmark's own stopwatch around every call it
//! makes into a layer.
//!
//! Two kinds of span. A **direct** span times a public call the script
//! makes anyway (`publish_batch`, `sim.run()`, …). A **shadow** span times
//! the traced run repeating one layer's public function on the same inputs
//! *beside* the real call — the layers below the world API cannot be timed
//! from outside any other way. A shadow names the direct span it explains;
//! that span's self time is its duration minus its shadows'.
//!
//! Shadow and oracle work is not the system's: it is summed into an
//! `excluded` clock, and every enclosing span (the round above all) is
//! shortened by what was excluded while it was open. Round wall time,
//! traced or not, is therefore the time of the real calls only.

use serde::Value;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Round,
    Direct,
    Shadow,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Shadow/oracle nanoseconds that elapsed while this span was open.
    pub excluded_ns: u64,
    pub parent: Option<usize>,
    /// Round id, or -1 during set-up and the failover tail.
    pub round: i64,
    /// Operations covered (updates applied, frames encoded, …).
    pub ops: u64,
}

impl Span {
    /// The span's own wall time, without work excluded while it was open.
    pub fn busy_ns(&self) -> f64 {
        (self.end_ns - self.start_ns).saturating_sub(self.excluded_ns) as f64
    }
}

/// One line of the per-layer table: every span of one name, summed.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: &'static str,
    pub kind: Kind,
    pub ops: u64,
    pub busy_ns: f64,
    /// Busy minus child spans. Signed: a shadow that runs slower than the
    /// real call it mirrors drives its parent's self time below zero, and
    /// hiding that would break the rows-sum-to-total identity.
    pub self_ns: f64,
}

/// The per-layer table of a traced run, over the timed rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    pub rows: Vec<Row>,
    /// Sum of round wall time.
    pub total_ns: f64,
    /// Round wall time no direct span covers.
    pub unattributed_ns: f64,
    pub rounds: u64,
}

impl Table {
    pub fn row(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == name)
    }

    pub fn unattributed_share(&self) -> f64 {
        if self.total_ns == 0.0 {
            0.0
        } else {
            self.unattributed_ns / self.total_ns
        }
    }

    /// The row with the largest self time: the next perf change's target.
    pub fn top_self(&self) -> Option<&Row> {
        self.rows.iter().max_by(|a, b| a.self_ns.total_cmp(&b.self_ns))
    }
}

/// The benchmark's clock and span store.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Running total of shadow and oracle time.
    excluded_ns: u64,
    round: i64,
    open_round: Option<(u64, u64)>,
    /// Set while the workload does traced-run bookkeeping between its
    /// shadows; the whole stretch is excluded as one.
    paused_at: Option<u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            excluded_ns: 0,
            round: -1,
            open_round: None,
            paused_at: None,
        }
    }

    /// Whether spans are kept and shadows should run.
    pub fn on(&self) -> bool {
        self.on
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open round `id`. Every span until [`Tracer::end_round`] belongs to it.
    pub fn begin_round(&mut self, id: u64) {
        self.round = id as i64;
        self.open_round = Some((self.now_ns(), self.excluded_ns));
    }

    /// Close the round and return its wall nanoseconds, shadow and oracle
    /// time taken out. Measured whether or not spans are kept, so traced
    /// and untraced rounds are timed by the same code.
    pub fn end_round(&mut self) -> u64 {
        let end_ns = self.now_ns();
        let (start_ns, excluded_at_start) = self.open_round.take().expect("round is open");
        let excluded_ns = self.excluded_ns - excluded_at_start;
        if self.on {
            let idx = self.spans.len();
            // The round span is pushed last; adopt the round's top-level
            // spans now.
            for s in self.spans.iter_mut().rev() {
                if s.round != self.round {
                    break;
                }
                if s.parent.is_none() {
                    s.parent = Some(idx);
                }
            }
            self.spans.push(Span {
                name: "round",
                kind: Kind::Round,
                start_ns,
                end_ns,
                excluded_ns,
                parent: None,
                round: self.round,
                ops: 1,
            });
        }
        self.round = -1;
        (end_ns - start_ns).saturating_sub(excluded_ns)
    }

    /// Time a public call the script makes anyway.
    pub fn direct<R>(&mut self, name: &'static str, ops: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            kind: Kind::Direct,
            start_ns,
            end_ns,
            excluded_ns: 0,
            parent: None,
            round: self.round,
            ops,
        });
        out
    }

    /// Time a repeat of one layer's public function on the inputs the real
    /// call `of` just had. `of` is the latest direct span of that name in
    /// this round. Only a traced run has shadows.
    pub fn shadow<R>(
        &mut self,
        name: &'static str,
        of: &'static str,
        ops: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        assert!(self.on, "shadow `{name}` outside a traced run");
        let parent = self
            .spans
            .iter()
            .rposition(|s| s.kind == Kind::Direct && s.name == of && s.round == self.round);
        assert!(parent.is_some(), "shadow `{name}` before its direct span `{of}`");
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        if self.paused_at.is_none() {
            self.excluded_ns += end_ns - start_ns;
        }
        self.spans.push(Span {
            name,
            kind: Kind::Shadow,
            start_ns,
            end_ns,
            excluded_ns: 0,
            parent,
            round: self.round,
            ops,
        });
        out
    }

    /// Run harness work (an oracle, mirror upkeep) off every clock.
    pub fn untimed<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        if self.paused_at.is_none() {
            self.excluded_ns += t.elapsed().as_nanos() as u64;
        }
        out
    }

    /// Stop the clocks for a stretch of shadows and the glue between them
    /// (collecting their inputs, keeping mirrors in step), until
    /// [`Tracer::resume`].
    pub fn pause(&mut self) {
        assert!(self.paused_at.is_none(), "pause while paused");
        self.paused_at = Some(self.now_ns());
    }

    pub fn resume(&mut self) {
        let since = self.paused_at.take().expect("resume while running");
        self.excluded_ns += self.now_ns() - since;
    }

    /// Shadow and oracle nanoseconds so far.
    pub fn excluded_ns(&self) -> u64 {
        self.excluded_ns
    }

    /// Raw nanoseconds of the named spans outside the rounds (set-up and
    /// tail calls).
    pub fn outside_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.round < 0 && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .fold(0.0, |a, b| a + b)
    }

    pub fn table(&self) -> Table {
        table(&self.spans)
    }

    /// The spans as a JSON value for `out/trace-<workload>.json`.
    pub fn to_json(&self) -> Value {
        Value::Seq(
            self.spans
                .iter()
                .map(|s| {
                    Value::Map(vec![
                        ("name".into(), Value::Str(s.name.into())),
                        ("kind".into(), Value::Str(format!("{:?}", s.kind).to_lowercase())),
                        ("start_ns".into(), Value::U64(s.start_ns)),
                        ("end_ns".into(), Value::U64(s.end_ns)),
                        ("excluded_ns".into(), Value::U64(s.excluded_ns)),
                        ("parent".into(), s.parent.map_or(Value::Null, |p| Value::U64(p as u64))),
                        ("round".into(), Value::I64(s.round)),
                        ("ops".into(), Value::U64(s.ops)),
                    ])
                })
                .collect(),
        )
    }
}

/// Aggregate spans of the timed rounds (round ≥ 0) into the per-layer
/// table. Self time of a span is its busy time minus its children's;
/// by construction the rows' self times plus the unattributed remainder
/// sum to the total round wall time.
pub fn table(spans: &[Span]) -> Table {
    let mut child_ns = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.busy_ns();
        }
    }
    let mut out = Table { rows: Vec::new(), total_ns: 0.0, unattributed_ns: 0.0, rounds: 0 };
    for (i, s) in spans.iter().enumerate() {
        if s.round < 0 {
            continue;
        }
        let busy = s.busy_ns();
        let own = busy - child_ns[i];
        if s.kind == Kind::Round {
            out.total_ns += busy;
            out.unattributed_ns += own;
            out.rounds += 1;
            continue;
        }
        let row = match out.rows.iter().position(|r| r.name == s.name) {
            Some(p) => &mut out.rows[p],
            None => {
                out.rows.push(Row {
                    name: s.name,
                    kind: s.kind,
                    ops: 0,
                    busy_ns: 0.0,
                    self_ns: 0.0,
                });
                out.rows.last_mut().expect("just pushed")
            }
        };
        row.ops += s.ops;
        row.busy_ns += busy;
        row.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, kind: Kind, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, kind, start_ns: start, end_ns: end, excluded_ns: 0, parent, round: 0, ops: 1 }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // round [0,100) holds a [10,60) and b [60,90); a holds two sibling
        // shadows of 10 and 30, one of which holds a grandchild of 4.
        let spans = vec![
            span("a", Kind::Direct, 10, 60, Some(5)),
            span("a.x", Kind::Shadow, 200, 210, Some(0)),
            span("a.y", Kind::Shadow, 210, 240, Some(0)),
            span("a.x.deep", Kind::Shadow, 300, 304, Some(1)),
            span("b", Kind::Direct, 60, 90, Some(5)),
            span("round", Kind::Round, 0, 100, None),
        ];
        let t = table(&spans);
        assert_eq!(t.total_ns, 100.0);
        assert_eq!(t.unattributed_ns, 20.0);
        assert_eq!(t.row("a").unwrap().self_ns, 50.0 - 10.0 - 30.0);
        assert_eq!(t.row("a.x").unwrap().self_ns, 10.0 - 4.0);
        assert_eq!(t.row("a.y").unwrap().busy_ns, 30.0);
        assert_eq!(t.row("b").unwrap().self_ns, 30.0);
        let rows: f64 = t.rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(rows + t.unattributed_ns, t.total_ns);
        assert_eq!(t.top_self().unwrap().name, "b");
    }

    #[test]
    fn set_up_spans_stay_out_of_the_table() {
        let mut s = span("models.build", Kind::Direct, 0, 50, None);
        s.round = -1;
        let t = table(&[s]);
        assert!(t.rows.is_empty());
        assert_eq!(t.total_ns, 0.0);
    }

    #[test]
    fn tracer_takes_shadow_and_oracle_time_out_of_the_round() {
        let mut t = Tracer::new(true);
        t.begin_round(0);
        t.direct("work", 1, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.shadow("work.part", "work", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.untimed(|| std::thread::sleep(std::time::Duration::from_millis(20)));
        let wall = t.end_round();
        assert!((2_000_000..20_000_000).contains(&wall), "round wall {wall} ns");
        let table = t.table();
        assert_eq!(table.rounds, 1);
        assert_eq!(table.total_ns, wall as f64);
        let work = t.spans().iter().position(|s| s.name == "work").unwrap();
        let shadow = t.spans().iter().find(|s| s.name == "work.part").unwrap();
        assert_eq!(shadow.parent, Some(work));
        assert_eq!(t.spans()[work].parent, Some(t.spans().len() - 1));
        assert!(table.row("work").unwrap().self_ns < 0.0, "a slow shadow shows as negative self");
    }

    #[test]
    fn a_paused_stretch_is_excluded_once() {
        let ms = std::time::Duration::from_millis;
        let mut t = Tracer::new(true);
        t.begin_round(0);
        t.direct("work", 1, || std::thread::sleep(ms(2)));
        t.pause();
        std::thread::sleep(ms(5));
        t.shadow("work.part", "work", 1, || std::thread::sleep(ms(5)));
        t.untimed(|| std::thread::sleep(ms(5)));
        t.resume();
        let wall = t.end_round();
        assert!((2_000_000..12_000_000).contains(&wall), "round wall {wall} ns");
        let excluded = t.excluded_ns();
        assert!((15_000_000..30_000_000).contains(&excluded), "excluded {excluded} ns");
    }

    #[test]
    fn untraced_tracer_keeps_no_spans_but_still_times_rounds() {
        let mut t = Tracer::new(false);
        t.begin_round(3);
        let v = t.direct("work", 1, || 7);
        t.untimed(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        let wall = t.end_round();
        assert_eq!(v, 7);
        assert!(wall < 4_000_000, "oracle time excluded, got {wall} ns");
        assert!(t.spans().is_empty());
    }
}
