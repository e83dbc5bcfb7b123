//! Drift guards between the wire declarations, a live scrape and the
//! README — the checks that used to be hand-kept lists (a 25-name shell
//! loop in CI, a 12-family array in a unit test) and had drifted.
//!
//! * every family a stats record declares shows up in a live `metrics`
//!   scrape (so no record is left out of an exposition);
//! * every family a live worker or router scrape carries — declared or
//!   hand-written — has a row in the README's metric-family table, and
//!   every row names a family that still exists;
//! * every `ErrorCode::ALL` wire string is named in the README.

use std::collections::BTreeSet;

use systec::router::router::RouterScrape;
use systec::router::{Router, RouterConfig};
use systec::serve::protocol::{
    CachePayload, ErrorCode, PoolPayload, Request, RequestCountsPayload, Response, ServePayload,
};
use systec::serve::wire::{FieldSpec, Record};
use systec::serve::{serve, Engine};

fn readme() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
    std::fs::read_to_string(path).expect("README.md at the repo root")
}

/// The family names of an exposition, from its `# TYPE` lines.
fn scraped_families(text: &str) -> BTreeSet<String> {
    text.lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split(' ').next())
        .map(str::to_string)
        .collect()
}

fn declared_families(fields: &[FieldSpec]) -> impl Iterator<Item = &'static str> + '_ {
    fields.iter().filter_map(|field| field.metric).map(|metric| metric.name)
}

/// Expands one `{a,b,c}` alternation (`pool_{parks,wakeups}_total`).
fn expand_braces(name: &str) -> Vec<String> {
    match (name.find('{'), name.find('}')) {
        (Some(open), Some(close)) if open < close => name[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{alt}{}", &name[..open], &name[close + 1..]))
            .collect(),
        _ => vec![name.to_string()],
    }
}

/// The families the README's metric table documents: the backticked
/// names in the first cell of each row, `systec_` prefix restored.
fn documented_families(readme: &str) -> BTreeSet<String> {
    let table = readme
        .split("| family | type | labels | meaning |")
        .nth(1)
        .expect("README has the metric-family table");
    table
        .lines()
        .skip(1) // the |---| rule
        .take_while(|line| line.starts_with('|'))
        .flat_map(|row| {
            let first_cell = row.split('|').nth(1).expect("a table row has a first cell");
            let names: Vec<String> = first_cell
                .split('`')
                .skip(1)
                .step_by(2)
                .flat_map(expand_braces)
                .map(|name| format!("systec_{name}"))
                .collect();
            names
        })
        .collect()
}

#[test]
fn declared_families_are_scraped_and_scraped_families_are_documented() {
    let Response::Metrics { text: worker } = Engine::new().handle(&Request::Metrics) else {
        panic!("metrics failed")
    };
    let shard = serve("127.0.0.1:0", Engine::new()).expect("bind shard");
    let router = Router::connect(&[shard.addr().to_string()], &RouterConfig::default())
        .expect("connect shard");
    let reply = router.respond(r#"{"op":"metrics"}"#);
    let Ok(Response::Metrics { text: front }) = Response::decode(&reply) else {
        panic!("router metrics failed: {reply}")
    };
    shard.join();

    let worker = scraped_families(&worker);
    let front = scraped_families(&front);
    for (record, fields) in [
        ("cache", CachePayload::FIELDS),
        ("pool", PoolPayload::FIELDS),
        ("requests", RequestCountsPayload::FIELDS),
        ("serve", ServePayload::FIELDS),
    ] {
        for family in declared_families(fields) {
            assert!(worker.contains(family), "`{record}` declares {family}; the scrape lacks it");
        }
    }
    for family in declared_families(RouterScrape::FIELDS) {
        assert!(front.contains(family), "the router declares {family}; its scrape lacks it");
    }

    let documented = documented_families(&readme());
    let live: BTreeSet<String> = worker.union(&front).cloned().collect();
    let undocumented: Vec<&String> = live.difference(&documented).collect();
    assert!(undocumented.is_empty(), "no README family-table row for {undocumented:?}");
    let stale: Vec<&String> = documented.difference(&live).collect();
    assert!(stale.is_empty(), "README family-table rows for families nothing exposes: {stale:?}");
}

#[test]
fn every_error_code_is_named_in_the_readme() {
    let readme = readme();
    for code in ErrorCode::ALL {
        assert!(readme.contains(&format!("`{code}`")), "README never mentions error code `{code}`");
    }
}
