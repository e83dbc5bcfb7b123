//! Durability round-trip property tier (vendored `proptest`):
//!
//! * arbitrary journal/snapshot records frame → decode **bit-identically**
//!   (tensor values compared by `f64` bits, so NaN and ±inf survive the
//!   disk format);
//! * a framed stream truncated at **every** byte offset decodes its
//!   longest valid record prefix without ever panicking — the property
//!   behind torn-tail crash recovery;
//! * arbitrary garbage appended after a valid prefix never corrupts the
//!   prefix and never panics;
//! * **replay ≡ live**: after every request of an arbitrary register /
//!   re-register / unregister sequence — acknowledged or refused, under
//!   a byte cap that forces evictions, snapshot folds every few records
//!   and injected journal failures — a second engine opened on a copy of
//!   the data dir holds the same names, generations and bytes as the
//!   live one, and serves them byte-identically. The tensors are dense
//!   vectors and compressed matrices, with explicit `0.0` and `-0.0`
//!   values: a stored zero is an entry replay must not lose.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use proptest::prelude::*;
use systec_serve::durability::{decode_stream, Record, JOURNAL_FILE, SNAPSHOT_FILE};
use systec_serve::protocol::{
    ErrorCode, Placement, Request, Response, ServePayload, StorageFormat, TensorPayload, Variant,
};
use systec_serve::{Engine, FaultPlan, FaultSite};

/// Names exercising escaping: quotes, backslashes, newlines, non-ASCII.
fn name_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("A".to_string()),
        Just(String::new()),
        Just("weird \"name\"".to_string()),
        Just("tab\the\\re".to_string()),
        Just("uni\u{00e9}\u{1f600}".to_string()),
        Just("nl\nin name".to_string()),
        Just("\u{0000}nul".to_string()),
    ]
}

/// Durable values must survive the disk format exactly — including the
/// non-finite ones a panicking kernel may have left behind.
fn value_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-1.0e6f64..1.0e6).prop_map(|v| v),
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::MIN_POSITIVE),
        Just(f64::MAX),
    ]
}

fn record_strategy() -> impl Strategy<Value = Record> {
    let dims = prop::collection::vec(1usize..5, 1..=3);
    let register = (
        name_strategy(),
        dims,
        0u64..100,
        any::<bool>(),
        prop::collection::vec(value_strategy(), 0..6),
    )
        .prop_map(|(name, dims, generation, dense, values)| {
            let payload = if dense {
                TensorPayload::Dense(values)
            } else {
                let rank = dims.len();
                let entries = values
                    .iter()
                    .enumerate()
                    .map(|(k, &v)| ((0..rank).map(|m| (k + m) % 7).collect(), v))
                    .collect();
                TensorPayload::Coo(entries)
            };
            Record::Register { name, dims, generation, payload }
        });
    let unregister = name_strategy().prop_map(|name| Record::Unregister { name });
    let generations = prop::collection::vec((name_strategy(), 0u64..1000), 0..5)
        .prop_map(|generations| Record::Generations { generations });
    prop_oneof![register, unregister, generations]
}

/// Structural equality with bit-exact value comparison (plain `==`
/// would reject NaN == NaN).
fn records_equal(a: &Record, b: &Record) -> bool {
    match (a, b) {
        (
            Record::Register { name: na, dims: da, generation: ga, payload: pa },
            Record::Register { name: nb, dims: db, generation: gb, payload: pb },
        ) => {
            na == nb
                && da == db
                && ga == gb
                && match (pa, pb) {
                    (TensorPayload::Dense(va), TensorPayload::Dense(vb)) => {
                        va.len() == vb.len()
                            && va.iter().zip(vb).all(|(x, y)| x.to_bits() == y.to_bits())
                    }
                    (TensorPayload::Coo(ea), TensorPayload::Coo(eb)) => {
                        ea.len() == eb.len()
                            && ea.iter().zip(eb.iter()).all(|((ca, va), (cb, vb))| {
                                ca == cb && va.to_bits() == vb.to_bits()
                            })
                    }
                    _ => false,
                }
        }
        (a, b) => a == b,
    }
}

/// The registered names the replay property draws from.
const NAMES: [&str; 4] = ["a", "b", "c", "d"];

/// Byte cap of the replay property's live engine: three dense
/// 4-vectors, or an 8-vector and a 4-vector (8 estimated bytes per dense
/// value), or four compressed matrix entries (24 each); a 16-vector
/// never fits.
const CAP: u64 = 96;

/// One tensor of the replay property: a dense vector of `values`, or a
/// compressed `len × 2` matrix storing `values[k]` at `[k, k % 2]`.
#[derive(Clone, Debug)]
struct Data {
    values: Vec<f64>,
    sparse: bool,
}

impl Data {
    /// The registry's admission estimate.
    fn bytes(&self) -> u64 {
        self.values.len() as u64 * if self.sparse { 24 } else { 8 }
    }
}

/// One request of the replay property: `Some` registers the data under
/// the name, `None` unregisters it.
type Op = (usize, Option<Data>);

fn op_strategy() -> impl Strategy<Value = Op> {
    // Three registrations to one unregister; values cycle through a
    // multiple of 1/4, an explicit 0.0 and an explicit -0.0.
    (0..NAMES.len(), 0u32..4, any::<bool>(), 0usize..4, -8i32..8).prop_map(
        |(name, kind, sparse, len, v)| {
            let len = if sparse { [1, 2, 3, 4][len] } else { [4, 4, 8, 16][len] };
            let value = |k: i32| [f64::from(v) / 4.0, 0.0, -0.0][(k + v).rem_euclid(3) as usize];
            let data = Data { values: (0..len).map(value).collect(), sparse };
            (name, (kind > 0).then_some(data))
        },
    )
}

fn register(name: &str, data: &Data) -> Request {
    let len = data.values.len();
    let (dims, payload) = if data.sparse {
        let entries = data.values.iter().enumerate().map(|(k, &v)| (vec![k, k % 2], v));
        (vec![len, 2], TensorPayload::Coo(entries.collect()))
    } else {
        (vec![len], TensorPayload::Dense(data.values.clone()))
    };
    Request::RegisterTensor {
        name: name.into(),
        dims,
        payload,
        format: StorageFormat::Auto,
        placement: Placement::Hash,
    }
}

fn stats(engine: &Engine) -> ServePayload {
    match engine.handle(&Request::Stats) {
        Response::Stats { serve, .. } => serve,
        other => panic!("stats failed: {other:?}"),
    }
}

/// Prepares and runs a copy (`sparse`: a row sum) over the tensor
/// registered as `name`; `None` when nothing is registered under it.
/// The reply carries the values and the read counters.
fn serve_copy(engine: &Engine, name: &str, sparse: bool) -> Option<String> {
    let einsum = if sparse { "for i, j: y[i] += t[i, j]" } else { "for i: y[i] = t[i]" };
    let resp = engine.handle(&Request::Prepare {
        einsum: einsum.into(),
        sym: vec![],
        inputs: vec![("t".into(), name.into())],
        variant: Variant::Naive,
        threads: Some(1),
        sharded: false,
    });
    match resp {
        Response::Prepared { kernel, .. } => {
            Some(engine.handle(&Request::Run { kernel, full: false, shard: None }).encode())
        }
        Response::Error { code: ErrorCode::UnknownTensor, .. } => None,
        other => panic!("prepare over `{name}` failed: {other:?}"),
    }
}

/// What the live engine must hold, kept by an independent statement of
/// the admission policy: live tensors in LRU order (oldest first — the
/// property prepares nothing on the live engine, so use order is
/// registration order) and every generation ever acknowledged.
#[derive(Default)]
struct Model {
    live: Vec<(&'static str, Data)>,
    generations: HashMap<&'static str, u64>,
}

impl Model {
    fn bytes(&self) -> u64 {
        self.live.iter().map(|(_, data)| data.bytes()).sum()
    }

    /// The names a registration of `bytes` under `name` evicts, or
    /// `None` when it cannot fit even with everything else evicted.
    fn victims(&self, name: &str, bytes: u64) -> Option<Vec<&'static str>> {
        let others = || self.live.iter().filter(|(other, _)| *other != name);
        let mut projected = others().map(|(_, data)| data.bytes()).sum::<u64>() + bytes;
        let mut victims = Vec::new();
        for (victim, data) in others() {
            if projected <= CAP {
                break;
            }
            projected -= data.bytes();
            victims.push(*victim);
        }
        (projected <= CAP).then_some(victims)
    }
}

/// Opens a second engine on a copy of `dir` and checks it against the
/// model: same bytes and tensor count, every name live or not as the
/// model says and served byte-identically to a never-restarted engine
/// holding the same values, every generation counter resumed.
fn assert_replay_matches(dir: &Path, model: &Model, step: usize) {
    let copy = dir.with_extension("copy");
    let _ = std::fs::remove_dir_all(&copy);
    std::fs::create_dir_all(&copy).unwrap();
    for file in [JOURNAL_FILE, SNAPSHOT_FILE] {
        if dir.join(file).exists() {
            std::fs::copy(dir.join(file), copy.join(file)).unwrap();
        }
    }
    // No byte cap here: the probes below re-register every name, and an
    // eviction among them would hide what recovery itself produced.
    let recovered = Engine::new().with_data_dir(&copy).expect("open the copied data dir");
    let serve = stats(&recovered);
    assert_eq!(serve.recovery_truncated, 0, "step {step}: torn bytes in the journal");
    assert_eq!(serve.registry_bytes, model.bytes(), "step {step}: registry_bytes");
    assert_eq!(serve.registry_tensors as usize, model.live.len(), "step {step}");
    for name in NAMES {
        let live = model.live.iter().find(|(live, _)| *live == name).map(|(_, data)| data);
        let expected = live.map(|data| {
            let fresh = Engine::new();
            fresh.handle(&register(name, data));
            serve_copy(&fresh, name, data.sparse).expect("just registered")
        });
        let sparse = live.is_some_and(|data| data.sparse);
        assert_eq!(serve_copy(&recovered, name, sparse), expected, "step {step}: `{name}`");
    }
    for name in NAMES {
        let next = model.generations.get(name).map_or(0, |g| g + 1);
        let probe = Data { values: vec![0.0; 4], sparse: false };
        let resp = recovered.handle(&register(name, &probe));
        let resumed = matches!(resp, Response::Registered { generation, .. } if generation == next);
        assert!(resumed, "step {step}: `{name}` must resume at generation {next}: {resp:?}");
    }
    drop(recovered);
    let _ = std::fs::remove_dir_all(&copy);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replay ≡ live, after every request.
    #[test]
    fn a_reopened_copy_matches_the_live_engine_after_every_request(
        ops in prop::collection::vec(op_strategy(), 1..12),
        seed in 0u64..1_000_000,
    ) {
        let dir = std::env::temp_dir()
            .join(format!("systec-replay-prop-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // One journal append in five fails, torn half way.
        let plan = Arc::new(FaultPlan::seeded(seed).rate(FaultSite::JournalWrite, 200_000));
        let live = Engine::new()
            .with_fault_plan(plan)
            .with_max_registered_bytes(CAP)
            .with_snapshot_every(3)
            .with_data_dir(&dir)
            .expect("open data dir");
        let mut model = Model::default();
        for (step, (name, data)) in ops.into_iter().enumerate() {
            let name = NAMES[name];
            match data {
                Some(data) => {
                    let victims = model.victims(name, data.bytes());
                    match (live.handle(&register(name, &data)), victims) {
                        (Response::Registered { generation, .. }, Some(victims)) => {
                            let next = model.generations.get(name).map_or(0, |g| g + 1);
                            assert_eq!(generation, next, "step {step}: `{name}`");
                            model.generations.insert(name, generation);
                            model.live.retain(|(n, _)| *n != name && !victims.contains(n));
                            model.live.push((name, data));
                        }
                        // An injected journal failure, or no room even
                        // with everything evicted: refused, no effect.
                        (Response::Error { code: ErrorCode::Internal, .. }, Some(_))
                        | (Response::Error { code: ErrorCode::AdmissionRejected, .. }, None) => {}
                        (resp, victims) => {
                            panic!("step {step}: {resp:?} where the policy evicts {victims:?}")
                        }
                    }
                }
                None => {
                    let existed = model.live.iter().any(|(n, _)| *n == name);
                    match live.handle(&Request::Unregister { name: name.into() }) {
                        Response::Unregistered { existed: was, .. } => {
                            assert_eq!(was, existed, "step {step}: `{name}`");
                            model.live.retain(|(n, _)| *n != name);
                        }
                        Response::Error { code: ErrorCode::Internal, .. } if existed => {}
                        resp => panic!("step {step}: {resp:?}"),
                    }
                }
            }
            let serve = stats(&live);
            assert_eq!(serve.registry_bytes, model.bytes(), "step {step}: live bytes");
            assert_eq!(serve.registry_tensors as usize, model.live.len(), "step {step}");
            assert_replay_matches(&dir, &model, step);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    /// Every record frames and decodes back bit-identically.
    #[test]
    fn record_frame_roundtrip_is_bit_identical(record in record_strategy()) {
        let stream = decode_stream(&record.frame());
        prop_assert_eq!(stream.records.len(), 1);
        prop_assert!(records_equal(&stream.records[0], &record));
        prop_assert_eq!(stream.truncated, 0);
    }

    /// A journal truncated at every possible byte offset — the torn
    /// tail a `kill -9` leaves behind — decodes the longest valid
    /// record prefix and never panics.
    #[test]
    fn truncation_at_every_offset_recovers_the_valid_prefix(
        records in prop::collection::vec(record_strategy(), 1..4)
    ) {
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for record in &records {
            bytes.extend_from_slice(&record.frame());
            boundaries.push(bytes.len());
        }
        for cut in 0..=bytes.len() {
            let stream = decode_stream(&bytes[..cut]);
            // The valid prefix is exactly the whole records that fit.
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            prop_assert_eq!(stream.records.len(), whole);
            prop_assert_eq!(stream.valid_len, boundaries[whole]);
            prop_assert_eq!(stream.truncated as usize, cut - boundaries[whole]);
            for (got, want) in stream.records.iter().zip(&records) {
                prop_assert!(records_equal(got, want));
            }
        }
    }

    /// Arbitrary garbage after a valid prefix neither corrupts the
    /// prefix nor panics the decoder.
    #[test]
    fn garbage_tails_never_corrupt_the_prefix(
        records in prop::collection::vec(record_strategy(), 0..3),
        garbage in prop::collection::vec((0u32..256).prop_map(|b| b as u8), 0..64)
    ) {
        let mut bytes = Vec::new();
        for record in &records {
            bytes.extend_from_slice(&record.frame());
        }
        let valid_len = bytes.len();
        bytes.extend_from_slice(&garbage);
        let stream = decode_stream(&bytes);
        // The decoder may not find *fewer* records than the prefix
        // holds; by vanishing luck the garbage could frame validly, so
        // allow more.
        prop_assert!(stream.records.len() >= records.len());
        prop_assert!(stream.valid_len >= valid_len);
        for (got, want) in stream.records.iter().zip(&records) {
            prop_assert!(records_equal(got, want));
        }
    }

    /// Pure fuzz: any byte soup decodes without panicking.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec((0u32..256).prop_map(|b| b as u8), 0..256)) {
        let stream = decode_stream(&bytes);
        prop_assert!(stream.valid_len <= bytes.len());
    }
}
