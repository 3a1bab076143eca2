//! The four workloads and their seeded operation generators.
//!
//! An *operation* is one TPC-W web interaction (a short sequence of prepared
//! statements) or, on `adhoc_sql`, one ad-hoc SQL statement.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shareddb_common::Value;
use shareddb_tpcw::{statement_names, Mix, ParamGenerator, TpcwScale, WebInteraction, SUBJECTS};
use std::time::Duration;

/// TPC-W items in every workload: the standard 10k scale.
pub const ITEMS: usize = 10_000;

/// Response-time limit of one ad-hoc statement (the light TPC-W limit).
const ADHOC_LIMIT: Duration = Duration::from_secs(3);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Browsing,
    Ordering,
    ItemLookup,
    AdhocSql,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Browsing,
        Workload::Ordering,
        Workload::ItemLookup,
        Workload::AdhocSql,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Browsing => "browsing",
            Workload::Ordering => "ordering",
            Workload::ItemLookup => "item_lookup",
            Workload::AdhocSql => "adhoc_sql",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the server runs with a data directory and a WAL.
    pub fn durable(self) -> bool {
        self == Workload::Ordering
    }

    /// Whether the server runs the hand-built TPC-W plan (else the compiled
    /// ad-hoc SQL workload).
    pub fn tpcw(self) -> bool {
        self != Workload::AdhocSql
    }
}

/// The compiled statement types of `adhoc_sql`, registered with
/// `Server::start_sql`; ad-hoc texts are matched against them.
pub const ADHOC_STATEMENTS: [(&str, &str); 3] = [
    (
        "itemById",
        "SELECT I_ID, I_TITLE, I_COST FROM ITEM WHERE I_ID = ?",
    ),
    (
        "itemsBySubject",
        "SELECT I_ID, I_TITLE, I_COST FROM ITEM WHERE I_SUBJECT = ? \
         ORDER BY I_PUB_DATE DESC LIMIT 50",
    ),
    ("setItemStock", "UPDATE ITEM SET I_STOCK = ? WHERE I_ID = ?"),
];

/// Rows an ad-hoc subject search returns at most.
pub const ADHOC_LIMIT_ROWS: usize = 50;

/// What the benchmark knows about a statement's expected reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// A primary-key probe of an existing key: exactly one row, and it is a
    /// light statement for `light_p99_ms`.
    OnePkRow,
    /// An insert whose key is ledgered once acknowledged.
    Insert { table: &'static str, key: i64 },
    /// Anything else.
    Any,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A prepared statement by index into [`Generator::statement_names`].
    Prepared {
        statement: usize,
        params: Vec<Value>,
    },
    /// Ad-hoc SQL text.
    Sql(String),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Call {
    pub request: Request,
    pub expect: Expect,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Operation {
    pub calls: Vec<Call>,
    pub limit: Duration,
}

/// Statements whose single-row pk probes make up `light_p99_ms` on TPC-W.
const LIGHT_STATEMENTS: [&str; 3] = ["getItemById", "getBook", "getCustomerById"];

/// Table written by each TPC-W insert; every insert's key is parameter 0.
fn insert_table(statement: &str) -> Option<&'static str> {
    Some(match statement {
        "createCart" => "SHOPPING_CART",
        "addToCart" => "SHOPPING_CART_LINE",
        "createOrder" => "ORDERS",
        "addOrderLine" => "ORDER_LINE",
        "addCCXact" => "CC_XACTS",
        "createCustomer" => "CUSTOMER",
        _ => return None,
    })
}

/// The TPC-W scale of every workload; the data set is drawn from the seed.
pub fn scale(seed: u64) -> TpcwScale {
    TpcwScale {
        seed,
        ..TpcwScale::with_items(ITEMS)
    }
}

/// Separates the operation stream's random draws from the data set's, which
/// uses the seed as is.
const STREAM_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// A seeded, deterministic stream of operations.
pub struct Generator {
    workload: Workload,
    rng: StdRng,
    params: ParamGenerator,
    names: Vec<&'static str>,
}

impl Generator {
    pub fn new(workload: Workload, seed: u64) -> Generator {
        Generator {
            workload,
            rng: StdRng::seed_from_u64(seed ^ STREAM_SALT),
            params: ParamGenerator::new(&scale(seed)),
            names: statement_names(),
        }
    }

    /// Prepared-statement names, indexed by [`Request::Prepared::statement`].
    pub fn statement_names(&self) -> &[&'static str] {
        &self.names
    }

    pub fn next_op(&mut self) -> Operation {
        match self.workload {
            Workload::Browsing => {
                let interaction = Mix::Browsing.sample(&mut self.rng);
                self.interaction(interaction)
            }
            Workload::Ordering => {
                let interaction = Mix::Ordering.sample(&mut self.rng);
                self.interaction(interaction)
            }
            Workload::ItemLookup => self.interaction(WebInteraction::SearchRequest),
            Workload::AdhocSql => self.adhoc(),
        }
    }

    /// Read statements of the workload's mix, for the correctness check.
    pub fn read_calls(&mut self, count: usize) -> Vec<Call> {
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let op = self.next_op();
            out.extend(
                op.calls
                    .into_iter()
                    .filter(|call| !self.is_update(call))
                    .take(count - out.len()),
            );
        }
        out
    }

    fn is_update(&self, call: &Call) -> bool {
        match &call.request {
            Request::Prepared { statement, .. } => {
                let name = self.names[*statement];
                insert_table(name).is_some()
                    || matches!(
                        name,
                        "refreshCart" | "clearCart" | "adminUpdateItem" | "updateCustomerLogin"
                    )
            }
            Request::Sql(sql) => sql.starts_with("UPDATE"),
        }
    }

    fn interaction(&mut self, interaction: WebInteraction) -> Operation {
        let calls = self
            .params
            .calls(interaction, &mut self.rng)
            .into_iter()
            .map(|call| {
                let statement = self
                    .names
                    .iter()
                    .position(|n| *n == call.statement)
                    .expect("TPC-W generates only registered statements");
                let expect = if LIGHT_STATEMENTS.contains(&call.statement) {
                    Expect::OnePkRow
                } else if let Some(table) = insert_table(call.statement) {
                    match call.params[0] {
                        Value::Int(key) => Expect::Insert { table, key },
                        _ => Expect::Any,
                    }
                } else {
                    Expect::Any
                };
                Call {
                    request: Request::Prepared {
                        statement,
                        params: call.params,
                    },
                    expect,
                }
            })
            .collect();
        Operation {
            calls,
            limit: interaction.time_limit(),
        }
    }

    fn adhoc(&mut self) -> Operation {
        let draw = self.rng.gen_range(0..100);
        let item = self.rng.gen_range(0..ITEMS as i64);
        let call = if draw < 70 {
            Call {
                request: Request::Sql(format!(
                    "SELECT I_ID, I_TITLE, I_COST FROM ITEM WHERE I_ID = {item}"
                )),
                expect: Expect::OnePkRow,
            }
        } else if draw < 90 {
            let subject = SUBJECTS[self.rng.gen_range(0..SUBJECTS.len())];
            Call {
                request: Request::Sql(format!(
                    "SELECT I_ID, I_TITLE, I_COST FROM ITEM WHERE I_SUBJECT = '{subject}' \
                     ORDER BY I_PUB_DATE DESC LIMIT {ADHOC_LIMIT_ROWS}"
                )),
                expect: Expect::Any,
            }
        } else {
            let stock = self.rng.gen_range(1..100);
            Call {
                request: Request::Sql(format!(
                    "UPDATE ITEM SET I_STOCK = {stock} WHERE I_ID = {item}"
                )),
                expect: Expect::Any,
            }
        };
        Operation {
            calls: vec![call],
            limit: ADHOC_LIMIT,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_operations() {
        for workload in Workload::ALL {
            let mut a = Generator::new(workload, 7);
            let mut b = Generator::new(workload, 7);
            let ops_a: Vec<_> = (0..50).map(|_| a.next_op()).collect();
            let ops_b: Vec<_> = (0..50).map(|_| b.next_op()).collect();
            // Fresh insert keys come from a process-wide epoch of 10M-id
            // ranges, so they differ between generators; mask every number
            // of eight or more digits.
            let mask = |text: String| -> String {
                let mut out = String::new();
                let mut digits = String::new();
                for c in text.chars().chain(std::iter::once(' ')) {
                    if c.is_ascii_digit() {
                        digits.push(c);
                        continue;
                    }
                    out.push_str(if digits.len() >= 8 { "fresh" } else { &digits });
                    digits.clear();
                    out.push(c);
                }
                out
            };
            let shape = |ops: &[Operation]| -> Vec<String> {
                ops.iter()
                    .flat_map(|op| op.calls.iter())
                    .map(|c| mask(format!("{:?}", c.request)))
                    .collect()
            };
            assert_eq!(shape(&ops_a), shape(&ops_b), "{}", workload.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
