//! Protocol round-trip property tier (vendored `proptest`):
//!
//! * arbitrary requests and responses encode → decode **bit-identically**
//!   (tensor values compared by `f64` bits, not tolerance);
//! * arbitrary malformed and truncated lines produce a structured
//!   error, never a panic — and the error response itself round-trips,
//!   which is what keeps a connection alive after garbage.

use proptest::prelude::*;
use systec_serve::json::Json;
use systec_serve::protocol::{
    CounterPayload, ErrorCode, KernelStatPayload, MergeRule, OutputPayload, Placement, Request,
    Response, ShardStatPayload, StorageFormat, TensorPayload, Variant, Warning, WarningKind,
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

fn value_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
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
    prop_oneof![value_strategy(), Just(f64::INFINITY), Just(f64::NEG_INFINITY), Just(f64::NAN),]
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
    let ran = (outputs_strategy(), counters_strategy())
        .prop_map(|(outputs, counters)| Response::Ran { outputs, counters });
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
        ran,
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
