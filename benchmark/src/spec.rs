//! `BENCHMARK.json` as the benchmark itself reads it: the bounds that
//! `--check-repeat` holds two runs to, and the metric names the smoke
//! test compares the printed ones with.

use systec_serve::json::Json;

use crate::procs;

pub struct EndToEnd {
    pub name: String,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct Spec {
    pub end_to_end: Vec<EndToEnd>,
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let path = procs::repo_root().join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let entries =
            json.get("end_to_end").and_then(Json::as_arr).ok_or("BENCHMARK.json: no end_to_end")?;
        let end_to_end = entries
            .iter()
            .map(|e| {
                Some(EndToEnd {
                    name: e.get("name")?.as_str()?.to_string(),
                    bound: e.get("bound")?.as_f64()?,
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("BENCHMARK.json: malformed end_to_end entry")?;
        Ok(Spec { end_to_end })
    }
}
