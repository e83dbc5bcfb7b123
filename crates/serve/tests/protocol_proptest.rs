//! Protocol round-trip property tier (vendored `proptest`):
//!
//! * arbitrary requests and responses encode → decode **bit-identically**
//!   (tensor values compared by `f64` bits, not tolerance);
//! * arbitrary malformed and truncated lines produce a structured
//!   error, never a panic — and the error response itself round-trips,
//!   which is what keeps a connection alive after garbage;
//! * a `run` reply written straight into its line ([`Response::encode`])
//!   is byte-identical to its `Json` tree ([`Response::to_json`]) —
//!   values drawn from arbitrary bit patterns as well as ranges;
//! * a `register_tensor` line or a journal `register` record decodes
//!   the same through the flat-cell reader ([`Request::decode`],
//!   [`JournalRecord::decode`]) as through the `Json` tree
//!   ([`Request::from_json`], [`JournalRecord::from_json`]): the same
//!   value or the same error, for every prefix of the line too;
//! * a sharded run's legs merged as text ([`merge_run`]) give the bytes
//!   of decoding them, folding the numbers in shard order and encoding
//!   the result — 1–4 legs, every merge rule, ±0, NaN, ±∞, subnormals,
//!   17-digit values and computed identities — and a malformed leg
//!   (truncated, a wrong count, name or dims, a token the printer never
//!   writes) answers a structured `internal_error`, never a panic.

use proptest::prelude::*;
use systec_serve::durability::Record as JournalRecord;
use systec_serve::json::Json;
use systec_serve::protocol::{
    merge_run, CounterPayload, ErrorCode, KernelStatPayload, MergeRule, OutputPayload, Placement,
    Request, Response, ShardStatPayload, StorageFormat, TensorPayload, Variant, Warning,
    WarningKind,
};
use systec_serve::wire::Record;

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// Any variant of a wire enum, drawn from its declared `ALL` list.
fn one_of<T: Copy + std::fmt::Debug + 'static>(all: &'static [T]) -> impl Strategy<Value = T> {
    (0..all.len()).prop_map(move |k| all[k])
}

/// An all-integer stats record with every declared field drawn
/// independently: built from `FIELDS`, so a field added to the
/// declaration is covered without this file changing.
fn record_strategy<R: Record + std::fmt::Debug>() -> impl Strategy<Value = R> {
    prop::collection::vec(0u64..9000, R::FIELDS.len()).prop_map(|values| {
        let pairs = R::FIELDS
            .iter()
            .zip(values)
            .map(|(field, v)| (field.name.to_string(), Json::num_u64(v)))
            .collect();
        R::from_json(&Json::Obj(pairs), "record").expect("an integer per declared field decodes")
    })
}

/// Names exercising escaping: quotes, backslashes, newlines, non-ASCII.
fn name_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("A".to_string()),
        Just("big_matrix".to_string()),
        Just("weird \"name\"".to_string()),
        Just("tab\the\\re".to_string()),
        Just("uni\u{00e9}\u{1f600}".to_string()),
        Just("nl\nin name".to_string()),
    ]
}

/// Any finite `f64`, by bit pattern (the vendored `proptest` has no
/// `any::<u64>`). An all-ones exponent — an infinity or a NaN — folds
/// onto a finite value by clearing the exponent's top bit.
fn finite_bits_strategy() -> impl Strategy<Value = f64> {
    (0u64..u64::MAX).prop_map(|bits| {
        let v = f64::from_bits(bits);
        if v.is_finite() {
            v
        } else {
            f64::from_bits(bits & !(1 << 62))
        }
    })
}

fn value_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        finite_bits_strategy(),
        (-1.0e6f64..1.0e6).prop_map(|v| v),
        Just(0.0),
        Just(-0.0),
        Just(1.5e-300),
        Just(f64::MIN_POSITIVE),
        Just(f64::MAX),
    ]
}

fn dims_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..5, 1..=3)
}

fn payload_strategy() -> impl Strategy<Value = (Vec<usize>, TensorPayload)> {
    (dims_strategy(), any::<bool>(), prop::collection::vec(value_strategy(), 0..6)).prop_map(
        |(dims, dense, values)| {
            if dense {
                (dims.clone(), TensorPayload::Dense(values))
            } else {
                let rank = dims.len();
                let entries = values
                    .iter()
                    .enumerate()
                    .map(|(k, &v)| ((0..rank).map(|m| (k + m) % 7).collect(), v))
                    .collect();
                (dims, TensorPayload::Coo(entries))
            }
        },
    )
}

fn request_strategy() -> impl Strategy<Value = Request> {
    let register =
        (name_strategy(), payload_strategy(), one_of(StorageFormat::ALL), one_of(Placement::ALL))
            .prop_map(|(name, (dims, payload), format, placement)| Request::RegisterTensor {
                name,
                dims,
                payload,
                format,
                placement,
            });
    let prepare = (
        name_strategy(),
        prop::collection::vec(name_strategy(), 0..3),
        prop::collection::vec((name_strategy(), name_strategy()), 0..3),
        one_of(Variant::ALL),
        any::<bool>(),
        0usize..5,
        any::<bool>(),
    )
        .prop_map(|(einsum, sym, mut inputs, variant, with_threads, threads, sharded)| {
            // Duplicate mapping keys decode ambiguously by design; make
            // keys unique for the round-trip property.
            inputs.sort();
            inputs.dedup_by(|a, b| a.0 == b.0);
            Request::Prepare {
                einsum,
                sym,
                inputs,
                variant,
                threads: with_threads.then_some(threads),
                sharded,
            }
        });
    let run = (0u64..1000, any::<bool>(), any::<bool>(), 1u64..8, 0u64..8).prop_map(
        |(kernel, full, with_shard, shards, k)| Request::Run {
            kernel,
            // `shard` and `full` are mutually exclusive on the engine but
            // both shapes must ride the wire; keep the strategy legal at
            // the protocol level only (k < n).
            full: full && !with_shard,
            shard: with_shard.then_some((k % shards, shards)),
        },
    );
    let unregister = name_strategy().prop_map(|name| Request::Unregister { name });
    prop_oneof![
        register,
        prepare,
        run,
        unregister,
        Just(Request::Stats),
        Just(Request::Metrics),
        Just(Request::Ping),
        Just(Request::Shutdown),
    ]
}

fn output_value_strategy() -> impl Strategy<Value = f64> {
    // Served outputs may be non-finite (min= identities).
    prop_oneof![
        value_strategy(),
        finite_bits_strategy(),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
    ]
}

fn outputs_strategy() -> impl Strategy<Value = Vec<OutputPayload>> {
    prop::collection::vec(
        (name_strategy(), dims_strategy(), prop::collection::vec(output_value_strategy(), 0..6)),
        0..3,
    )
    .prop_map(|outs| {
        let mut outs: Vec<OutputPayload> = outs
            .into_iter()
            .map(|(name, dims, values)| OutputPayload { name, dims, values })
            .collect();
        outs.sort_by(|a, b| a.name.cmp(&b.name));
        outs.dedup_by(|a, b| a.name == b.name);
        outs
    })
}

fn counters_strategy() -> impl Strategy<Value = CounterPayload> {
    (
        0u64..1_000_000,
        0u64..1_000_000,
        0u64..1_000_000,
        prop::collection::vec((name_strategy(), 0u64..1_000_000), 0..4),
    )
        .prop_map(|(flops, writes, iterations, mut reads)| {
            reads.sort();
            reads.dedup_by(|a, b| a.0 == b.0);
            CounterPayload { flops, writes, iterations, reads }
        })
}

fn ran_strategy() -> impl Strategy<Value = Response> {
    (outputs_strategy(), counters_strategy())
        .prop_map(|(outputs, counters)| Response::Ran { outputs, counters })
}

fn response_strategy() -> impl Strategy<Value = Response> {
    let registered = (name_strategy(), 0u64..100_000, 0u64..10)
        .prop_map(|(name, nnz, generation)| Response::Registered { name, nnz, generation });
    let unregistered = (name_strategy(), any::<bool>())
        .prop_map(|(name, existed)| Response::Unregistered { name, existed });
    let split_strategy = prop::collection::vec((name_strategy(), one_of(MergeRule::ALL)), 0..3)
        .prop_map(|mut entries| -> Vec<(String, MergeRule)> {
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            entries.dedup_by(|a, b| a.0 == b.0);
            entries
        });
    let prepared = (
        0u64..1000,
        any::<bool>(),
        any::<bool>(),
        split_strategy,
        one_of(WarningKind::ALL),
        name_strategy(),
    )
        .prop_map(|(kernel, splittable, with_split, split, kind, message)| {
            Response::Prepared {
                kernel,
                splittable,
                split: with_split.then_some(split),
                warning: (!with_split).then_some(Warning { kind, message }),
            }
        });
    let kernel_stat = (
        0u64..100,
        name_strategy(),
        0u64..9000,
        any::<bool>(),
        (0.0f64..5000.0, 0.0f64..5000.0, 0.0f64..5000.0, 0.0f64..5000.0),
        0u64..50,
    )
        .prop_map(|(kernel, spec, runs, with_quantiles, q, slow)| KernelStatPayload {
            kernel,
            spec,
            runs,
            median_us: with_quantiles.then_some(q.0),
            p90_us: with_quantiles.then_some(q.1),
            p99_us: with_quantiles.then_some(q.2),
            max_us: with_quantiles.then_some(q.3),
            slow,
        });
    let stats = (
        record_strategy(),
        record_strategy(),
        record_strategy(),
        record_strategy(),
        prop::collection::vec(kernel_stat, 0..3),
        prop::collection::vec(record_strategy(), 0..4),
    )
        .prop_map(|(cache, requests, pool, serve, kernels, slow)| Response::Stats {
            cache,
            requests,
            pool,
            serve,
            kernels,
            slow,
        });
    let metrics = name_strategy().prop_map(|salt| Response::Metrics {
        // Realistic multi-line exposition text plus escaping stress
        // from the name strategy (quotes, backslashes, newlines).
        text: format!(
            "# HELP systec_requests_total Requests by verb.\n\
             # TYPE systec_requests_total counter\n\
             systec_requests_total{{verb=\"{salt}\"}} 3\n"
        ),
    });
    let shard_stat =
        (0u64..8, name_strategy(), any::<bool>(), prop::collection::vec(0u64..9000, 4)).prop_map(
            |(shard, addr, healthy, v)| ShardStatPayload {
                shard,
                addr,
                healthy,
                vnodes: v[0],
                keys: v[1],
                forwarded: v[2],
                errors: v[3],
            },
        );
    let cluster_stats = (record_strategy(), prop::collection::vec(shard_stat, 0..4))
        .prop_map(|(router, shards)| Response::ClusterStats { router, shards });
    let error = (one_of(ErrorCode::ALL), name_strategy())
        .prop_map(|(code, message)| Response::Error { code, message });
    prop_oneof![
        registered,
        unregistered,
        prepared,
        ran_strategy(),
        stats,
        cluster_stats,
        metrics,
        Just(Response::Pong),
        Just(Response::ShuttingDown),
        error,
    ]
}

/// Structural equality with NaN-tolerant, bit-exact value comparison.
fn responses_equal(a: &Response, b: &Response) -> bool {
    match (a, b) {
        (
            Response::Ran { outputs: oa, counters: ca },
            Response::Ran { outputs: ob, counters: cb },
        ) => {
            ca == cb
                && oa.len() == ob.len()
                && oa.iter().zip(ob).all(|(x, y)| {
                    x.name == y.name
                        && x.dims == y.dims
                        && x.values.len() == y.values.len()
                        && x.values.iter().zip(&y.values).all(|(u, v)| u.to_bits() == v.to_bits())
                })
        }
        _ => a == b,
    }
}

/// Draws bounded choices from a tape of random numbers (zeros once it
/// runs out).
struct Tape(std::vec::IntoIter<u32>);

impl Tape {
    fn pick(&mut self, n: usize) -> usize {
        self.0.next().unwrap_or(0) as usize % n
    }

    /// One of `items`.
    fn one<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.pick(items.len())]
    }

    /// Whitespace between two tokens, usually none.
    fn ws(&mut self) -> &'static str {
        self.one(&["", "", "", " ", "\n", "\t ", "\r\n  "])
    }
}

/// A `[…]` of `items`, with whitespace drawn around every token.
fn array(t: &mut Tape, items: &[String]) -> String {
    let mut out = format!("[{}", t.ws());
    for (k, item) in items.iter().enumerate() {
        if k > 0 {
            out += &format!("{},{}", t.ws(), t.ws());
        }
        out += item;
    }
    out + t.ws() + "]"
}

/// A value cell: a number in several spellings, a non-finite value's
/// string, or — sometimes when `noisy` — a cell no payload accepts.
fn value_cell(t: &mut Tape, noisy: bool) -> String {
    let noisy = noisy && t.pick(4) == 0;
    let cells = ["2.5", "-0.0", "0", "7", "1e-300", "0.1", "1.7976931348623157e308", "-3E2"];
    let strange = ["\"inf\"", "\"-inf\"", "\"nan\""];
    let bad = ["\"x\"", "[1]", "null", "true", "\"\\u0069nf\"", "{}"];
    match t.pick(if noisy { 10 } else { 9 }) {
        0 => t.one(&strange).into(),
        9 => t.one(&bad).into(),
        _ => t.one(&cells).into(),
    }
}

/// A coordinate cell for a mode of extent `dim`: in bounds in several
/// spellings (`3`, `3.0`, `3e0`, `-0`), sometimes out of bounds, and —
/// sometimes when `noisy` — negative, fractional, a string, an array or
/// `null`.
fn coord_cell(t: &mut Tape, dim: usize, noisy: bool) -> String {
    let noisy = noisy && t.pick(4) == 0;
    let c = t.pick(dim + 1);
    match t.pick(if noisy { 8 } else { 5 }) {
        0 => format!("{c}.0"),
        1 => format!("{c}e0"),
        2 if c == 0 => "-0".into(),
        5 => "-1".into(),
        6 => "1.5".into(),
        7 => t.one(&["\"x\"", "\"inf\"", "[1]", "null"]).into(),
        _ => format!("{c}"),
    }
}

/// A `coo` array for `dims`: rank + 1 cells a row, ragged when noisy.
fn coo_field(t: &mut Tape, dims: &[usize], noisy: bool) -> String {
    let rows: Vec<String> = (0..t.pick(5))
        .map(|_| {
            let mut cells: Vec<String> = dims.iter().map(|&d| coord_cell(t, d, noisy)).collect();
            cells.push(value_cell(t, noisy));
            if noisy && t.pick(6) == 0 {
                match t.pick(2) {
                    0 => drop(cells.pop()),
                    _ => cells.push("1".into()),
                }
            }
            array(t, &cells)
        })
        .collect();
    match t.pick(if noisy { 8 } else { 7 }) {
        7 => t.one(&["7", "[1, 2]", "\"coo\"", "null", "[[]]"]).into(),
        _ => array(t, &rows),
    }
}

/// A `dense` array for `dims`: one value a cell, the wrong count or
/// rows when noisy.
fn dense_field(t: &mut Tape, dims: &[usize], noisy: bool) -> String {
    let mut len: usize = dims.iter().product();
    if noisy && t.pick(4) == 0 {
        len += 1;
    }
    let cells: Vec<String> = (0..len).map(|_| value_cell(t, noisy)).collect();
    match t.pick(if noisy { 8 } else { 7 }) {
        7 => t.one(&["[[1], [2]]", "7", "[]", "{}"]).into(),
        _ => array(t, &cells),
    }
}

/// A `register_tensor` request line (or, with `record`, a journal
/// `register` record) of rank 1–4 with a `coo` or `dense` payload,
/// fields in a drawn order, sometimes a second payload key, and
/// whitespace between tokens.
fn register_line(t: &mut Tape, record: bool) -> String {
    let dims: Vec<usize> = (0..1 + t.pick(4)).map(|_| 1 + t.pick(4)).collect();
    let noisy = t.pick(3) == 0;
    let payload = |t: &mut Tape| match t.pick(3) {
        0 => format!("\"dense\":{}{}", t.ws(), dense_field(t, &dims, noisy)),
        _ => format!("\"coo\":{}{}", t.ws(), coo_field(t, &dims, noisy)),
    };
    let dims_text = array(t, &dims.iter().map(|d| d.to_string()).collect::<Vec<_>>());
    let mut fields = vec![
        if record {
            "\"rec\":\"register\"".to_string()
        } else {
            "\"op\":\"register_tensor\"".into()
        },
        "\"name\":\"A\"".into(),
        format!("\"dims\":{}{dims_text}", t.ws()),
        payload(t),
        if record { "\"generation\":3".into() } else { "\"format\":\"csf\"".into() },
    ];
    if t.pick(2) == 0 {
        fields.push(payload(t));
    }
    // Rotate the payload (and a duplicate) ahead of `dims`, or not.
    let ahead = t.pick(3);
    fields[1..].rotate_right(ahead);
    let sep: Vec<String> = (0..fields.len()).map(|_| format!("{},{}", t.ws(), t.ws())).collect();
    let mut line = format!("{}{{{}", t.ws(), t.ws());
    for (k, field) in fields.iter().enumerate() {
        if k > 0 {
            line += &sep[k];
        }
        line += field;
    }
    line + t.ws() + "}" + t.ws()
}

/// The decode of `line` through the cell reader and through the tree:
/// a request's `Debug` (NaN-tolerant, bit-exact for every other value)
/// or its error message.
fn request_both_ways(line: &str) -> (Result<String, String>, Result<String, String>) {
    let show = |r: Result<Request, systec_serve::protocol::ProtoError>| {
        r.map(|req| format!("{req:?}")).map_err(|e| e.message)
    };
    let tree = Json::parse(line)
        .map_err(|e| systec_serve::protocol::ProtoError { message: e.to_string() })
        .and_then(|json| Request::from_json(&json));
    (show(Request::decode(line)), show(tree))
}

fn record_both_ways(text: &str) -> (Option<String>, Option<String>) {
    let show = |r: Option<JournalRecord>| r.map(|rec| format!("{rec:?}"));
    let tree = Json::parse(text).ok().and_then(|json| JournalRecord::from_json(&json));
    (show(JournalRecord::decode(text)), show(tree))
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_roundtrip_bit_identically(req in request_strategy()) {
        let line = req.encode();
        prop_assert!(!line.contains('\n'), "one request per line: {line}");
        let decoded = Request::decode(&line)
            .map_err(|e| TestCaseError::fail(format!("{line}: {e}")))?;
        prop_assert_eq!(decoded, req);
    }

    #[test]
    fn responses_roundtrip_bit_identically(resp in response_strategy()) {
        let line = resp.encode();
        prop_assert!(!line.contains('\n'), "one response per line: {line}");
        let decoded = Response::decode(&line)
            .map_err(|e| TestCaseError::fail(format!("{line}: {e}")))?;
        prop_assert!(responses_equal(&decoded, &resp), "{:?} != {:?}", decoded, resp);
    }

    #[test]
    fn run_reply_encode_matches_the_tree(resp in ran_strategy()) {
        // The direct writer against the `Json` tree it replaced: the
        // same line, byte for byte.
        prop_assert_eq!(resp.encode(), resp.to_json().to_string());
    }

    #[test]
    fn truncated_requests_error_not_panic(req in request_strategy(), frac in 0.0f64..1.0) {
        let line = req.encode();
        let cut = ((line.len() as f64) * frac) as usize;
        let cut = (0..=cut).rev().find(|&c| line.is_char_boundary(c)).unwrap_or(0);
        if cut < line.len() {
            let err = Request::decode(&line[..cut]);
            prop_assert!(err.is_err(), "proper prefix `{}` must not decode", &line[..cut]);
            // The structured error response built from it survives its
            // own round trip (so the connection can keep talking).
            let e = err.unwrap_err();
            let resp = Response::error(ErrorCode::Parse, e.message);
            let reline = resp.encode();
            prop_assert_eq!(Response::decode(&reline).unwrap(), resp);
        }
    }

    #[test]
    fn flat_register_decode_agrees_with_the_tree(tape in prop::collection::vec(0u32..1 << 16, 160)) {
        let mut t = Tape(tape.into_iter());
        let record = t.pick(3) == 0;
        let line = register_line(&mut t, record);
        // Every prefix, the whole line last (all of it is ASCII).
        for cut in 0..=line.len() {
            let text = &line[..cut];
            if record {
                let (flat, tree) = record_both_ways(text);
                prop_assert!(flat == tree, "record `{text}`:\n{flat:?}\n{tree:?}");
            } else {
                let (flat, tree) = request_both_ways(text);
                prop_assert!(flat == tree, "line `{text}`:\n{flat:?}\n{tree:?}");
            }
        }
    }

    #[test]
    fn garbage_lines_never_panic(bytes in prop::collection::vec(0u32..0x110000, 0..40)) {
        // Arbitrary unicode soup: decode may fail (almost always) but
        // must never panic; if it somehow parses, it must re-encode.
        let line: String = bytes.iter().filter_map(|&b| char::from_u32(b)).collect();
        if let Ok(req) = Request::decode(&line) {
            let re = req.encode();
            prop_assert_eq!(Request::decode(&re).unwrap(), req);
        }
        let _ = Response::decode(&line);
    }

    #[test]
    fn mutated_json_never_panics(resp in response_strategy(), pos in 0usize..200, byte in 0u32..128) {
        let byte = byte as u8;
        // Flip one byte of a valid encoding to a printable/control char:
        // decode must fail cleanly or produce a decodable value.
        let mut line = resp.encode().into_bytes();
        if line.is_empty() {
            return Ok(());
        }
        let pos = pos % line.len();
        line[pos] = byte;
        if let Ok(s) = String::from_utf8(line) {
            let _ = Response::decode(&s);
            let _ = Request::decode(&s);
        }
    }
}

// ---------------------------------------------------------------------
// The text merge of a sharded run's legs
// ---------------------------------------------------------------------

/// One leg's `run` reply: its outputs and counters.
type Leg = (Vec<OutputPayload>, CounterPayload);

/// The numeric merge [`merge_run`] replaced, kept as its oracle: leg 0
/// seeds the accumulators (every worker initializes reduced outputs to
/// the fold identity), later legs merge in fixed shard order with the
/// compiler's own fold (`MergeKind::merge_into`), counters sum.
fn merge_legs(legs: Vec<Leg>, merge: &[(String, MergeRule)]) -> Result<Response, String> {
    let shards = legs.len();
    let mut legs = legs.into_iter();
    let (mut outputs, mut counters) = legs.next().ok_or("a fan-out needs at least one leg")?;
    for (k, (leg_outputs, leg_counters)) in legs.enumerate() {
        let k = k + 1; // leg 0 seeded the accumulators
        if leg_outputs.len() != outputs.len() {
            return Err(format!("shard {k} returned a different output set than shard 0"));
        }
        for (accumulated, leg) in outputs.iter_mut().zip(leg_outputs) {
            if leg.name != accumulated.name
                || leg.dims != accumulated.dims
                || leg.values.len() != accumulated.values.len()
            {
                return Err(format!(
                    "shard {k} returned a mismatched shape for output `{}`",
                    accumulated.name
                ));
            }
            let rule = merge
                .iter()
                .find(|(name, _)| *name == accumulated.name)
                .map(|(_, rule)| *rule)
                .ok_or_else(|| format!("no merge rule for output `{}`", accumulated.name))?;
            rule.kind().merge_into(&mut accumulated.values, &leg.values, &leg.dims, k, shards);
        }
        counters.merge(leg_counters);
    }
    Ok(Response::Ran { outputs, counters })
}

/// The reply the router gave before the text merge: decode every leg
/// (relaying the first error, refusing any other kind), merge the
/// numbers with [`merge_legs`], encode.
fn numeric_merge(lines: &[String], merge: &[(String, MergeRule)]) -> String {
    let internal = |message: String| Response::error(ErrorCode::Internal, message).encode();
    let mut legs = Vec::new();
    for (k, line) in lines.iter().enumerate() {
        match Response::decode(line) {
            Ok(Response::Ran { outputs, counters }) => legs.push((outputs, counters)),
            Ok(Response::Error { .. }) => return line.clone(),
            _ => {
                return internal(format!(
                    "shard {k} answered a row-range run with a malformed or wrong-kind reply"
                ))
            }
        }
    }
    merge_legs(legs, merge).map_or_else(internal, |response| response.encode())
}

/// Values a leg may print: both zeros, the non-finite values, the
/// subnormal extremes, 17-digit values, and the largest finite ones.
const EDGE_VALUES: [f64; 20] = [
    0.0,
    -0.0,
    1.0,
    -2.5,
    0.1,
    0.30000000000000004,
    1.0 / 3.0,
    -123456789.12345678,
    5e-324,
    -5e-324,
    2.225073858507201e-308,
    2.2250738585072014e-308,
    1e21,
    1e308,
    f64::MAX,
    -f64::MAX,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -0.1,
];

impl Tape {
    /// Any `f64`: an edge value, or one drawn bit pattern (NaNs and
    /// infinities included).
    fn value(&mut self) -> f64 {
        if self.pick(2) == 0 {
            return self.one(&EDGE_VALUES);
        }
        let bits = (0..4).fold(0u64, |bits, _| bits << 16 | self.pick(1 << 16) as u64);
        f64::from_bits(bits)
    }
}

/// The legs of one sharded run, as their workers print them, and its
/// merge schedule: 1–4 legs, 1–3 outputs under every rule (scalars,
/// leading extents the leg count does not divide, and value counts the
/// dims do not match), cells that no leg, one leg, several or every leg
/// wrote.
fn sharded_run(t: &mut Tape) -> (Vec<Leg>, Vec<(String, MergeRule)>) {
    let legs = 1 + t.pick(4);
    let mut names = ["y", "w\"q", "z\\\n", "é"];
    names.rotate_left(t.pick(4));
    let mut shapes: Vec<(String, MergeRule, Vec<usize>)> = (0..1 + t.pick(3))
        .map(|k| {
            let dims = match t.pick(4) {
                0 => vec![],
                1 => vec![t.pick(8)],
                _ => vec![t.pick(8), 1 + t.pick(3)],
            };
            (names[k].to_string(), t.one(MergeRule::ALL), dims)
        })
        .collect();
    shapes.sort_by(|a, b| a.0.cmp(&b.0));
    let mut outputs: Vec<Vec<OutputPayload>> = vec![Vec::new(); legs];
    for (name, rule, dims) in &shapes {
        // Now and then a value count the dims do not account for, the
        // same on every leg: the merge still windows and folds it.
        let product: usize = dims.iter().product();
        let cells = match t.pick(8) {
            0 => product + 1 + t.pick(3),
            1 => product.saturating_sub(1 + t.pick(3)),
            _ => product,
        };
        let identity = match rule {
            MergeRule::Rows => None,
            MergeRule::Add => Some(0.0),
            MergeRule::Min => Some(f64::INFINITY),
            MergeRule::Max => Some(f64::NEG_INFINITY),
        };
        let mut values = vec![Vec::with_capacity(cells); legs];
        for _ in 0..cells {
            // Who wrote this cell: nobody, one leg, every leg, or each
            // leg by a coin. A row-owned cell is written by every leg.
            let pattern = if identity.is_none() { 2 } else { t.pick(4) };
            let writer = t.pick(legs);
            for (k, leg) in values.iter_mut().enumerate() {
                let wrote = match pattern {
                    0 => false,
                    1 => k == writer,
                    2 => true,
                    _ => t.pick(2) == 0,
                };
                leg.push(match identity {
                    Some(identity) if !wrote => identity,
                    // Sometimes a leg computes the identity itself.
                    Some(identity) if t.pick(8) == 0 => identity,
                    _ => t.value(),
                });
            }
        }
        for (leg, values) in outputs.iter_mut().zip(values) {
            leg.push(OutputPayload { name: name.clone(), dims: dims.clone(), values });
        }
    }
    let legs = outputs
        .into_iter()
        .map(|outputs| {
            let mut reads = vec![("A".to_string(), t.pick(1000) as u64)];
            if t.pick(2) == 0 {
                reads.push(("x".to_string(), t.pick(1000) as u64));
            }
            let counters =
                CounterPayload { flops: t.pick(1000) as u64, writes: 1, iterations: 2, reads };
            (outputs, counters)
        })
        .collect();
    let merge = shapes.into_iter().map(|(name, rule, _)| (name, rule)).collect();
    (legs, merge)
}

fn encode_legs(legs: &[Leg]) -> Vec<String> {
    legs.iter()
        .map(|(outputs, counters)| {
            Response::Ran { outputs: outputs.clone(), counters: counters.clone() }.encode()
        })
        .collect()
}

/// Whether `line` is the structured `internal_error` reply.
fn is_internal_error(line: &str) -> bool {
    matches!(Response::decode(line), Ok(Response::Error { code: ErrorCode::Internal, .. }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn text_merge_equals_the_numeric_merge(tape in prop::collection::vec(0u32..1 << 16, 600)) {
        let mut t = Tape(tape.into_iter());
        let (legs, merge) = sharded_run(&mut t);
        let lines = encode_legs(&legs);
        let (merged, cells) = merge_run(&lines, &merge);
        prop_assert_eq!(&merged, &numeric_merge(&lines, &merge));
        let total: usize = legs[0].0.iter().map(|o| o.values.len()).sum();
        prop_assert_eq!(cells.copied + cells.folded, total as u64);
    }

    #[test]
    fn malformed_legs_answer_a_structured_error(tape in prop::collection::vec(0u32..1 << 16, 600)) {
        let mut t = Tape(tape.into_iter());
        let (mut legs, mut merge) = sharded_run(&mut t);
        let k = t.pick(legs.len());
        // A shape only disagrees with another leg's.
        let shape = legs.len() > 1 && !legs[k].0.is_empty();
        let o = t.pick(legs[k].0.len().max(1));
        let mut lines = encode_legs(&legs);
        let bad = ["01", "1e5", "\"x\"", "1.50", "-", ".5", "+1", "1.", "-0.0", "\"Inf\"", "00", "1E5", "null"];
        match t.pick(8) {
            // Truncated anywhere: inside `values` or elsewhere.
            0 => {
                let cut = t.pick(lines[k].len());
                lines[k].truncate(cut);
            }
            1 if shape => {
                let values = &mut legs[k].0[o].values;
                if values.pop().is_none() {
                    values.push(1.0);
                }
                lines = encode_legs(&legs);
            }
            2 if shape => {
                legs[k].0[o].name.push('!');
                lines = encode_legs(&legs);
            }
            3 if shape => {
                legs[k].0[o].dims.push(1);
                lines = encode_legs(&legs);
            }
            4 if legs.len() > 1 => {
                let gone = t.pick(merge.len());
                merge.remove(gone);
            }
            5 => {
                let code = t.one(ErrorCode::ALL);
                lines[k] = Response::error(code, "leg failed").encode();
            }
            6 => lines[k] = Response::Pong.encode(),
            _ => {
                // One value token the printer never writes.
                let Some(at) = legs[k].0.iter().position(|o| !o.values.is_empty()) else {
                    return Ok(());
                };
                legs[k].0[at].values[0] = 4242.4242;
                lines = encode_legs(&legs);
                lines[k] = lines[k].replacen("4242.4242", t.one(&bad), 1);
                let (merged, _) = merge_run(&lines, &merge);
                let relayed = lines[..k].iter().any(|l| l.starts_with("{\"ok\":false"));
                prop_assert!(relayed || is_internal_error(&merged), "{merged}");
                return Ok(());
            }
        }
        let (merged, _) = merge_run(&lines, &merge);
        prop_assert_eq!(&merged, &numeric_merge(&lines, &merge));
    }
}
