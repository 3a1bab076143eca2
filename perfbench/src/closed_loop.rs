//! The closed-loop load: K operations in flight on one pipelined connection,
//! driven from one thread.
//!
//! Each of the K slots runs one operation at a time and submits its next
//! statement only after the previous reply arrived, the way an application
//! server worker waits on its database. Replies arrive in submission order,
//! so the loop always waits on the oldest outstanding ticket.

use crate::stats::{OpCounts, OpEnd};
use crate::workload::{Call, Expect, Generator, Operation, Request};
use shareddb_client::{Connection, Outcome, Prepared, Ticket};
use shareddb_common::Error;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Operations in flight.
pub const K: usize = 64;

/// Hooks at the window boundaries, called from the driving thread.
pub trait WindowHooks {
    /// The measurement window starts now (warm-up is over).
    fn window_start(&mut self);
    /// The window ends now; no operation completing later is counted.
    fn window_end(&mut self);
}

/// One recorded span. Spans of one operation share `op`.
#[derive(Debug, Clone)]
pub struct Span {
    pub kind: SpanKind,
    pub op: u64,
    /// Statement index within the operation (0 for operation spans).
    pub call: usize,
    /// Offsets from the start of the run.
    pub start: Duration,
    pub end: Duration,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One operation, first submit to last reply.
    Operation,
    /// One statement, submit to reply; caused by its operation.
    Statement,
    /// Time inside `Connection::submit`/`submit_query`; caused by its
    /// statement.
    Submit,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Operation => "operation",
            SpanKind::Statement => "statement",
            SpanKind::Submit => "client.submit",
        }
    }
}

/// What one window recorded.
#[derive(Debug, Default)]
pub struct Record {
    /// Window length as measured, seconds.
    pub window_s: f64,
    pub counts: OpCounts,
    /// Operations completed within their limit, per whole second of the
    /// window.
    pub ok_per_second: Vec<u64>,
    /// Latency of each operation completed without error, µs.
    pub op_latency_us: Vec<f64>,
    /// Latency of each light pk-probe statement completed without error, µs.
    pub light_latency_us: Vec<f64>,
    /// Sum and count of all successful statement latencies, µs.
    pub stmt_latency_sum_us: f64,
    pub stmts: u64,
    /// Replies whose shape contradicted the request (e.g. no row for an
    /// existing primary key).
    pub shape_errors: Vec<String>,
    /// Errors by message, first few kept for the report.
    pub error_samples: Vec<String>,
    /// Inserts acknowledged at any time of the run: `(table, key)`.
    pub ledger: Vec<(&'static str, i64)>,
    /// Ad-hoc SQL texts sent in the window (first few thousand).
    pub sql_texts: Vec<String>,
    /// Traced run only: spans, and the time spent in submit calls.
    pub spans: Vec<Span>,
    pub submit_sum_us: f64,
    pub submits: u64,
    /// Traced run only: operations completed within their limit in the
    /// traced and in the untraced seconds of the window, and those seconds.
    pub ok_traced: u64,
    pub ok_untraced: u64,
    pub traced_s: f64,
    pub untraced_s: f64,
}

const SQL_TEXTS_KEPT: usize = 4096;
const ERROR_SAMPLES_KEPT: usize = 8;

struct Slot {
    op: Operation,
    op_id: u64,
    next_call: usize,
    started: Instant,
    call_started: Instant,
    error: Option<Error>,
    traced: bool,
}

/// Phase of the run, by the clock.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    WarmUp,
    Window,
    Drain,
}

pub struct ClosedLoop<'a> {
    conn: &'a mut Connection,
    prepared: &'a [Prepared],
    generator: &'a mut Generator,
    /// Traced run: alternate untraced and traced seconds of the window, and
    /// record spans in the traced ones.
    pub trace: bool,
    /// Clock origin of span offsets.
    epoch: Instant,
}

impl<'a> ClosedLoop<'a> {
    pub fn new(
        conn: &'a mut Connection,
        prepared: &'a [Prepared],
        generator: &'a mut Generator,
    ) -> ClosedLoop<'a> {
        ClosedLoop {
            conn,
            prepared,
            generator,
            trace: false,
            epoch: Instant::now(),
        }
    }

    /// Runs warm-up, then the window, then drains every operation still in
    /// flight. Transport failures abort the run; statement errors fail only
    /// their operation.
    pub fn run(
        &mut self,
        warm_up: Duration,
        window: Duration,
        hooks: &mut dyn WindowHooks,
    ) -> Result<Record, Error> {
        let mut record = Record::default();
        let mut slots: Vec<Slot> = Vec::with_capacity(K);
        let mut inflight: VecDeque<(Ticket, usize)> = VecDeque::with_capacity(K);
        self.epoch = Instant::now();
        let mut window_start = self.epoch + warm_up;
        let mut window_end = window_start + window;
        let mut phase = Phase::WarmUp;
        let mut next_op_id = 0u64;

        for index in 0..K {
            let op = self.generator.next_op();
            let now = Instant::now();
            slots.push(Slot {
                op,
                op_id: next_op_id,
                next_call: 0,
                started: now,
                call_started: now,
                error: None,
                traced: false,
            });
            next_op_id += 1;
            let ticket = self.submit(&mut slots[index], false, &mut record)?;
            inflight.push_back((ticket, index));
        }

        while let Some((ticket, index)) = inflight.pop_front() {
            let result = self.conn.wait(ticket);
            let now = Instant::now();
            if phase == Phase::WarmUp && now >= window_start {
                hooks.window_start();
                phase = Phase::Window;
                window_start = Instant::now();
                window_end = window_start + window;
            } else if phase == Phase::Window && now >= window_end {
                hooks.window_end();
                phase = Phase::Drain;
                record.window_s = (now - window_start).as_secs_f64();
            }
            let in_window = phase == Phase::Window;
            let slot = &mut slots[index];
            let call = &slot.op.calls[slot.next_call];
            let stmt_us = (now - slot.call_started).as_secs_f64() * 1e6;
            match result {
                Ok(outcome) => {
                    if let Expect::Insert { table, key } = call.expect {
                        record.ledger.push((table, key));
                    }
                    if in_window {
                        record.stmt_latency_sum_us += stmt_us;
                        record.stmts += 1;
                        if call.expect == Expect::OnePkRow {
                            record.light_latency_us.push(stmt_us);
                        }
                        if let Some(problem) = shape_problem(call, &outcome) {
                            record.shape_errors.push(problem);
                        }
                    }
                }
                Err(e @ Error::Io(_)) => return Err(e),
                Err(e) => {
                    if in_window && record.error_samples.len() < ERROR_SAMPLES_KEPT {
                        record.error_samples.push(e.to_string());
                    }
                    slot.error = Some(e);
                }
            }
            if slot.traced {
                record.spans.push(Span {
                    kind: SpanKind::Statement,
                    op: slot.op_id,
                    call: slot.next_call,
                    start: slot.call_started - self.epoch,
                    end: now - self.epoch,
                });
            }
            slot.next_call += 1;
            let op_done = slot.error.is_some() || slot.next_call == slot.op.calls.len();
            if op_done {
                let latency = now - slot.started;
                let end = OpEnd::classify(slot.error.as_ref(), latency <= slot.op.limit);
                if in_window {
                    record.counts.record(end);
                    if end == OpEnd::Ok {
                        let second = (now - window_start).as_secs() as usize;
                        if record.ok_per_second.len() <= second {
                            record.ok_per_second.resize(second + 1, 0);
                        }
                        record.ok_per_second[second] += 1;
                    }
                    if end != OpEnd::Failed {
                        record.op_latency_us.push(latency.as_secs_f64() * 1e6);
                    }
                    if self.trace && end == OpEnd::Ok {
                        if traced_second(slot.started, window_start) {
                            record.ok_traced += 1;
                        } else {
                            record.ok_untraced += 1;
                        }
                    }
                }
                if slot.traced {
                    record.spans.push(Span {
                        kind: SpanKind::Operation,
                        op: slot.op_id,
                        call: 0,
                        start: slot.started - self.epoch,
                        end: now - self.epoch,
                    });
                }
                if phase == Phase::Drain {
                    continue;
                }
                slot.op = self.generator.next_op();
                slot.op_id = next_op_id;
                next_op_id += 1;
                slot.next_call = 0;
                slot.error = None;
                slot.started = Instant::now();
                slot.traced = self.trace
                    && phase == Phase::Window
                    && traced_second(slot.started, window_start);
            } else if phase == Phase::Drain {
                continue;
            }
            let keep_sql = phase == Phase::Window;
            let ticket = self.submit(&mut slots[index], keep_sql, &mut record)?;
            inflight.push_back((ticket, index));
        }
        if self.trace {
            let (traced, untraced) = split_seconds(record.window_s);
            record.traced_s = traced;
            record.untraced_s = untraced;
        }
        Ok(record)
    }

    fn submit(
        &mut self,
        slot: &mut Slot,
        keep_sql: bool,
        record: &mut Record,
    ) -> Result<Ticket, Error> {
        let call = &slot.op.calls[slot.next_call];
        let begun = Instant::now();
        slot.call_started = begun;
        let ticket = match &call.request {
            Request::Prepared { statement, params } => {
                self.conn.submit(&self.prepared[*statement], params)?
            }
            Request::Sql(sql) => {
                if keep_sql && record.sql_texts.len() < SQL_TEXTS_KEPT {
                    record.sql_texts.push(sql.clone());
                }
                self.conn.submit_query(sql)?
            }
        };
        if slot.traced {
            let end = Instant::now();
            record.submit_sum_us += (end - begun).as_secs_f64() * 1e6;
            record.submits += 1;
            record.spans.push(Span {
                kind: SpanKind::Submit,
                op: slot.op_id,
                call: slot.next_call,
                start: begun - self.epoch,
                end: end - self.epoch,
            });
        }
        Ok(ticket)
    }
}

/// Traced runs trace the odd seconds of the window and leave the even ones
/// untraced, so drift over the window affects both halves alike.
fn traced_second(at: Instant, window_start: Instant) -> bool {
    at.saturating_duration_since(window_start).as_secs() % 2 == 1
}

/// Seconds of a window of `window_s` that were untraced and traced.
fn split_seconds(window_s: f64) -> (f64, f64) {
    let whole = window_s.floor();
    let frac = window_s - whole;
    let whole = whole as u64;
    let traced = (whole / 2) as f64 + if whole % 2 == 1 { frac } else { 0.0 };
    (traced, window_s - traced)
}

/// A reply that contradicts the request's known shape.
fn shape_problem(call: &Call, outcome: &Outcome) -> Option<String> {
    match (&call.expect, outcome) {
        (Expect::OnePkRow, Outcome::Rows(rs)) if rs.rows.len() == 1 => None,
        (Expect::OnePkRow, other) => Some(format!(
            "{:?}: expected one row for an existing key, got {} rows",
            call.request,
            other.rows().len()
        )),
        (Expect::Insert { .. }, Outcome::Updated { rows_affected: 1 }) => None,
        (Expect::Insert { table, key }, other) => Some(format!(
            "insert into {table} key {key}: expected 1 row affected, got {other:?}"
        )),
        (Expect::Any, _) => None,
    }
}
