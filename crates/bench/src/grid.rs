//! The paper's full experiment grid as reusable sweep jobs.
//!
//! Extracted from the `sweep` binary so `wisync-serve` can run any
//! slice of the grid on demand with *identical* results: a job's RNG
//! seed is derived from its global index in the full grid (see
//! [`wisync_testkit::run_sweep_indexed`]), so serving `fig7` alone
//! reproduces the exact rows a full sweep writes to
//! `results/fig7.json`, byte for byte.

use std::collections::BTreeMap;

use wisync_testkit::{derive_seed, Json, SweepJob};
use wisync_workloads::{AppProfile, CasKind, LivermoreLoop};

use crate::{
    fig10_app, fig11_point, fig11_variants, fig7_core_counts, fig7_row, fig8_lengths, fig8_point,
    fig9_critical_sections, fig9_point, geomean_util, phys,
};

fn u64s(values: impl IntoIterator<Item = u64>) -> Json {
    Json::Arr(values.into_iter().map(Json::U64).collect())
}

fn f64s(values: impl IntoIterator<Item = f64>) -> Json {
    Json::Arr(values.into_iter().map(Json::F64).collect())
}

/// Builds the full job grid. Job names are `<figure>/<row>`; the figure
/// prefix decides which `results/<figure>.json` the row lands in. Job
/// order is the seed-derivation order and must stay stable: appending
/// new jobs is fine, reordering existing ones changes every committed
/// seed after the reorder point.
pub fn build_jobs(quick: bool) -> Vec<SweepJob> {
    let mut jobs: Vec<SweepJob> = Vec::new();
    let cores = grid_cores(quick);

    // Table 4 is an analytic model: one cheap job.
    jobs.push(SweepJob::new("table4/overheads", |_rng| {
        Json::Arr(
            phys::table4()
                .into_iter()
                .map(|row| {
                    Json::obj([
                        ("core", Json::Str(row.core.name.to_string())),
                        ("area_mm2", Json::F64(row.core.area_mm2)),
                        ("tdp_w", Json::F64(row.core.tdp_w)),
                        ("t2a_area_pct", Json::F64(row.area_pct)),
                        ("t2a_power_pct", Json::F64(row.power_pct)),
                    ])
                })
                .collect(),
        )
    }));

    // Figure 7: one job per core count.
    let fig7_cores: Vec<usize> = fig7_core_counts()
        .into_iter()
        .filter(|&c| !quick || c <= 32)
        .collect();
    for c in fig7_cores {
        jobs.push(SweepJob::new(format!("fig7/{c}cores"), move |_rng| {
            Json::obj([
                ("cores", Json::U64(c as u64)),
                (
                    "cycles_per_iter",
                    u64s(fig7_row(c, if quick { 4 } else { 20 })),
                ),
            ])
        }));
    }

    push_fig8_jobs(&mut jobs, "fig8", cores, quick);
    push_fig9_jobs(&mut jobs, "fig9", cores, quick);

    // The full suite, or a representative subset on the quick grid.
    let apps = |subset: &[&str]| -> Vec<AppProfile> {
        if !quick {
            return AppProfile::all();
        }
        let by_name = |n: &&str| AppProfile::by_name(n).expect("known app");
        subset.iter().map(by_name).collect()
    };

    // Figure 10 / Table 5: one job per application; Table 5's utilization
    // columns fall out of the same runs.
    for profile in apps(&["streamcluster", "raytrace", "ocean-c", "water-ns", "dedup"]) {
        jobs.push(SweepJob::new(
            format!("fig10/{}", profile.name),
            move |_rng| {
                let r = fig10_app(profile, cores, |c| c);
                Json::obj([
                    ("app", Json::Str(r.name.to_string())),
                    ("cycles", u64s(r.cycles)),
                    ("speedup", f64s((0..4).map(|i| r.speedup(i)))),
                    ("data_utilization", f64s(r.util)),
                ])
            },
        ));
    }

    // Figure 11: one job per Table 6 variant.
    for (name, variant) in fig11_variants() {
        if quick && name != "Default" && name != "SlowNet" {
            continue;
        }
        let apps = apps(&["streamcluster", "raytrace", "ocean-c"]);
        jobs.push(SweepJob::new(format!("fig11/{name}"), move |_rng| {
            let [plus, not, wisync] = fig11_point(variant, cores, &apps);
            Json::obj([
                ("variant", Json::Str(name.to_string())),
                ("geomean_speedup", f64s([plus, not, wisync])),
            ])
        }));
    }

    // The 128-core panels (d-f) of Figures 8 and 9, full grid only. They
    // come after every other job, so no earlier job's seed moves.
    if !quick {
        push_fig8_jobs(&mut jobs, "fig8_128c", 128, false);
        push_fig9_jobs(&mut jobs, "fig9_128c", 128, false);
    }

    jobs
}

/// Core count of the grid's Figure 8-11 runs (the 128-core panels
/// aside).
pub fn grid_cores(quick: bool) -> usize {
    if quick {
        16
    } else {
        64
    }
}

/// Figure 8: one job per (loop, vector length).
fn push_fig8_jobs(jobs: &mut Vec<SweepJob>, figure: &str, cores: usize, quick: bool) {
    for which in [
        LivermoreLoop::Loop2,
        LivermoreLoop::Loop3,
        LivermoreLoop::Loop6,
    ] {
        let lengths: Vec<u64> = fig8_lengths(which)
            .into_iter()
            .filter(|&n| !quick || n <= 256)
            .collect();
        for n in lengths {
            jobs.push(SweepJob::new(
                format!("{figure}/{which:?}_n{n}"),
                move |_rng| {
                    Json::obj([
                        ("loop", Json::Str(format!("{which:?}"))),
                        ("n", Json::U64(n)),
                        ("cycles", u64s(fig8_point(which, n, cores))),
                    ])
                },
            ));
        }
    }
}

/// Figure 9: one job per (kind, critical-section size).
fn push_fig9_jobs(jobs: &mut Vec<SweepJob>, figure: &str, cores: usize, quick: bool) {
    for kind in [CasKind::Fifo, CasKind::Lifo, CasKind::Add] {
        let sections: Vec<u64> = fig9_critical_sections()
            .into_iter()
            .filter(|&w| !quick || w <= 1024)
            .collect();
        for w in sections {
            jobs.push(SweepJob::new(
                format!("{figure}/{kind}_w{w}"),
                move |_rng| {
                    let [baseline, wisync] = fig9_point(kind, w, cores);
                    Json::obj([
                        ("kind", Json::Str(kind.to_string())),
                        ("critical_section", Json::U64(w)),
                        ("cas_per_kcycle", f64s([baseline, wisync])),
                    ])
                },
            ));
        }
    }
}

/// Every figure/table name the grid can produce, including the derived
/// `table5` (deterministic order).
pub fn figure_names(quick: bool) -> Vec<String> {
    let mut names: Vec<String> = build_jobs(quick)
        .iter()
        .map(|j| {
            j.name
                .split_once('/')
                .expect("job names are figure/row")
                .0
                .to_string()
        })
        .collect();
    names.push("table5".to_string());
    names.sort();
    names.dedup();
    names
}

/// The jobs of one figure, each with its *global* index in the full
/// grid — the index its seed is derived from. `table5` maps to the
/// `fig10` jobs it is derived from. Returns an empty vector for unknown
/// figures.
pub fn figure_jobs(quick: bool, figure: &str) -> Vec<(u64, SweepJob)> {
    let source = if figure == "table5" { "fig10" } else { figure };
    build_jobs(quick)
        .into_iter()
        .enumerate()
        .filter(|(_, job)| {
            job.name
                .split_once('/')
                .is_some_and(|(fig, _)| fig == source)
        })
        .map(|(i, job)| (i as u64, job))
        .collect()
}

/// Turns indexed job results into the documents `sweep` writes, one per
/// figure (see [`figure_report`]), each result a [`job_row`]. Table 5
/// is projected from the `fig10` rows whenever they are present.
pub fn figure_reports(
    results: impl IntoIterator<Item = (u64, String, Json)>,
    base_seed: u64,
    quick: bool,
) -> BTreeMap<String, Json> {
    let mut by_figure: BTreeMap<String, Vec<Json>> = BTreeMap::new();
    for (index, name, value) in results {
        let (figure, row) = name.split_once('/').expect("job names are figure/row");
        let entry = job_row(base_seed, index, row, value);
        by_figure.entry(figure.to_string()).or_default().push(entry);
    }
    if let Some(fig10_rows) = by_figure.get("fig10") {
        by_figure.insert("table5".to_string(), derive_table5(fig10_rows));
    }
    by_figure
        .into_iter()
        .map(|(figure, rows)| {
            let report = figure_report(&figure, base_seed, quick, rows);
            (figure, report)
        })
        .collect()
}

/// The `{row, seed, data}` row a job's result becomes in a results
/// document, its seed stamped from the job's global grid index.
pub fn job_row(base_seed: u64, index: u64, row: &str, data: Json) -> Json {
    Json::obj([
        ("row", Json::Str(row.to_string())),
        (
            "seed",
            Json::Str(format!("0x{:016x}", derive_seed(base_seed, index))),
        ),
        ("data", data),
    ])
}

/// Derives the Table 5 rows (per-app Data-channel utilization +
/// geomean) from already-computed `fig10` rows, as a projection instead
/// of a re-run.
fn derive_table5(fig10_rows: &[Json]) -> Vec<Json> {
    let row = |app: &str, pct: Vec<f64>| {
        Json::obj([
            ("app", Json::Str(app.to_string())),
            ("data_utilization_pct", f64s(pct)),
        ])
    };
    let data: Vec<&Json> = fig10_rows.iter().map(|r| field(r, "data")).collect();
    let utils: Vec<Vec<f64>> = data.iter().map(|d| floats(d, "data_utilization")).collect();
    let mut rows: Vec<Json> = data
        .iter()
        .zip(&utils)
        .map(|(d, u)| row(text(d, "app"), u.iter().map(|u| u * 100.0).collect()))
        .collect();
    if !utils.is_empty() {
        let gm = (0..2).map(|col| geomean_util(utils.iter().map(|u| u[col])) * 100.0);
        rows.push(row("GM", gm.collect()));
    }
    rows
}

/// The document written to `results/<figure>.json`: figure name, base
/// seed, grid size, and the rows. When the ambient `WISYNC_MAC` selects
/// a non-default MAC policy the document is stamped with it — the rows
/// genuinely differ from the committed (backoff) artifacts, and the
/// stamp keeps such a file from ever byte-matching or being mistaken
/// for them. Under the default policy no stamp is emitted, so default
/// runs stay byte-identical to the committed results.
pub fn figure_report(figure: &str, base_seed: u64, quick: bool, rows: Vec<Json>) -> Json {
    let mut fields = vec![
        ("figure", Json::Str(figure.to_string())),
        ("base_seed", Json::U64(base_seed)),
        ("quick", Json::Bool(quick)),
    ];
    let mac = wisync_wireless::MacPolicy::from_env();
    if mac != wisync_wireless::MacPolicy::Exponential {
        fields.push(("mac", Json::Str(mac.to_string())));
    }
    fields.push(("rows", Json::Arr(rows)));
    Json::obj(fields)
}

/// Renders a figure document, as [`figure_report`] builds it or as
/// parsed back from `results/<figure>.json`, as the paper-style text
/// table `sweep` writes to `results/<figure>.txt`. Quick-grid and
/// non-default-MAC documents open with a line saying so, so such a table
/// cannot pass for a committed one.
///
/// # Panics
///
/// On a figure the grid does not produce, or rows not shaped as the
/// grid writes them.
pub fn figure_text(doc: &Json) -> String {
    let figure = text(doc, "figure");
    let quick = field(doc, "quick") == &Json::Bool(true);
    let cores = if figure.ends_with("_128c") {
        128
    } else {
        grid_cores(quick)
    };
    let rows = items(doc, "rows");
    let data: Vec<&Json> = match figure {
        // Table 5's rows are fig10 projections, with no job wrapper.
        "table5" => rows.iter().collect(),
        // The one table4 job returns every core's row as an array.
        "table4" => rows.iter().flat_map(|r| items(r, "data")).collect(),
        _ => rows.iter().map(|r| field(r, "data")).collect(),
    };
    let mut out = String::new();
    if quick {
        out += "Quick grid: fewer rows and cores than the paper.\n";
    }
    if let Some(Json::Str(mac)) = doc.get("mac") {
        out += &format!("MAC policy: {mac} (not the paper's backoff).\n");
    }
    if !out.is_empty() {
        out += "\n";
    }
    let archs = ["Baseline", "Baseline+", "WiSyncNoT", "WiSync"];
    let claims = match figure {
        "table4" => {
            use crate::phys::TransceiverDesign;
            let base = TransceiverDesign::yu_65nm();
            out += &format!(
                "RF scaling model (paper §2, §7.1):\n  \
                 65nm measured [Yu et al.]: {:.2} mm2, {:.1} mW, {:.0} Gb/s\n",
                base.area_mm2, base.power_mw, base.bandwidth_gbps
            );
            for (label, d) in [
                ("22nm data transceiver", base.scale_to_22nm()),
                (
                    "+ tone ext. + 2nd antenna",
                    TransceiverDesign::tone_extension_22nm(),
                ),
                ("total (T+2A)", TransceiverDesign::wisync_node_22nm()),
            ] {
                out += &format!(
                    "  {label:<25}: {:.2} mm2, {:.1} mW\n",
                    d.area_mm2, d.power_mw
                );
            }
            out += "\nTable 4: T+2A overhead relative to reference cores @22nm\n";
            let cols = ["area_mm2", "tdp_w", "t2a_area_pct", "t2a_power_pct"];
            let cells = |d: &Json| cols.map(|k| format!("{:.1}", num(field(d, k))));
            let rows = data.iter().map(|d| row(text(d, "core"), cells(d)));
            let header = ["core", "area mm2", "TDP W", "T+2A area %", "T+2A power %"];
            table(&mut out, &[18, 10, 8, 12, 12], &header, rows);
            "\nPaper's Table 4: 0.7% / 0.4% of a Xeon Haswell core; 5.6% / 1.8% of an\n\
             Atom Silvermont core."
        }
        "fig7" => {
            out += "Figure 7: TightLoop, cycles per iteration (log-scale axis in the paper)\n";
            let rows = data.iter().map(|d| sci_row(d, "cores", "cycles_per_iter"));
            let header = [&["cores"], &archs[..]].concat();
            table(&mut out, &[8, 12, 12, 12, 12], &header, rows);
            "\nPaper's claims: WiSync ~1 order of magnitude below Baseline+, 2-3 orders\n\
             below Baseline; WiSyncNoT 2-6x WiSync; WiSync stays low as cores grow."
        }
        "fig8" | "fig8_128c" => {
            for (which, panel) in panels(&data, "loop") {
                out += &format!("Figure 8 {which} for {cores} cores — execution time (cycles)\n");
                let rows = panel.iter().map(|d| sci_row(d, "n", "cycles"));
                let header = [&["vec len"], &archs[..]].concat();
                table(&mut out, &[10, 12, 12, 12, 12], &header, rows);
                out += "\n";
            }
            "Paper's claims: WiSync/WiSyncNoT several times faster than Baseline+ and\n\
             ~2 orders below Baseline at small vectors; gaps shrink as vectors grow\n\
             (most visibly for Loop 6's large loop body)."
        }
        "fig9" | "fig9_128c" => {
            for (kind, panel) in panels(&data, "kind") {
                out += &format!(
                    "Figure 9 {kind} for {cores} cores — CAS throughput per 1000 cycles\n"
                );
                let rows = panel.iter().map(|d| {
                    let [b, w] = floats(d, "cas_per_kcycle")[..] else {
                        panic!("fig9 row is not a (Baseline, WiSync) pair")
                    };
                    let cells = [
                        format!("{b:.2}"),
                        format!("{w:.2}"),
                        format!("{:.1}x", w / b),
                    ];
                    row(int(field(d, "critical_section")), cells)
                });
                let header = ["crit. sect.", "Baseline", "WiSync", "ratio"];
                table(&mut out, &[12, 12, 12, 8], &header, rows);
                out += "\n";
            }
            "Paper's claims: parity at >=8-16K instructions between CASes (64 cores),\n\
             ~1 order of magnitude advantage for WiSync by ~2K instructions (and by\n\
             ~4K at 128 cores), growing as contention rises."
        }
        "fig10" => {
            out += &format!("Figure 10: speedup over Baseline, {cores} cores\n");
            let speedups: Vec<Vec<f64>> = data.iter().map(|d| floats(d, "speedup")).collect();
            let n = speedups.len() as f64;
            let mean: Vec<f64> = (0..4)
                .map(|i| speedups.iter().map(|s| s[i]).sum::<f64>() / n)
                .collect();
            let geomean: Vec<f64> = (0..4)
                .map(|i| (speedups.iter().map(|s| s[i].ln()).sum::<f64>() / n).exp())
                .collect();
            let speedup_row =
                |name: &str, s: &[f64]| row(name, s[1..].iter().map(|x| format!("{x:.2}")));
            let widths = [15, 10, 10, 10];
            let rows = data
                .iter()
                .zip(&speedups)
                .map(|(d, s)| speedup_row(text(d, "app"), s));
            table(&mut out, &widths, &[&["app"], &archs[1..]].concat(), rows);
            out += &format!("{:-<48}\n", "");
            let averages = [speedup_row("mean", &mean), speedup_row("geoMean", &geomean)];
            table(&mut out, &widths, &[], averages.into_iter());
            "\nPaper's claims: WiSync geomean 1.23 over Baseline and 1.12 over Baseline+;\n\
             WiSyncNoT ~= WiSync; standouts streamcluster (~5.9), raytrace (~3.0),\n\
             ocean/radiosity; many apps near 1.0 (too little fine-grain sync)."
        }
        "table5" => {
            out +=
                &format!("Table 5: Data channel utilization (% of total cycles), {cores} cores\n");
            let columns: Vec<&str> = AppProfile::table5_names()
                .into_iter()
                .chain(["GM"])
                .collect();
            let rows = [(0, "WT"), (1, "W")].map(|(col, label)| {
                row(
                    label,
                    columns
                        .iter()
                        .map(|&app| match data.iter().find(|d| text(d, "app") == app) {
                            Some(d) => format!("{:.2}", floats(d, "data_utilization_pct")[col]),
                            None => "-".to_string(),
                        }),
                )
            });
            // Column heads are app names cut to the 7-character width.
            let header: Vec<&str> = std::iter::once("")
                .chain(columns.iter().map(|app| &app[..app.len().min(7)]))
                .collect();
            table(
                &mut out,
                &[4, 7, 7, 7, 7, 7, 7, 7, 7],
                &header,
                rows.into_iter(),
            );
            "\nPaper's claims: utilizations of a few percent at most (WT up to 3.0% for\n\
             streamcluster); WiSync below WiSyncNoT because barriers move to the Tone\n\
             channel; geometric means around 0.2% (WT) and 0.1% (W)."
        }
        "fig11" => {
            out += &format!(
                "Figure 11: geomean speedup over Baseline under Table 6 variants, {cores} cores{}\n",
                if quick { " (quick subset)" } else { "" }
            );
            let rows = data.iter().map(|d| {
                let speedups = floats(d, "geomean_speedup").into_iter();
                row(text(d, "variant"), speedups.map(|x| format!("{x:.3}")))
            });
            let header = [&["variant"], &archs[1..]].concat();
            table(&mut out, &[12, 10, 10, 10], &header, rows);
            "\nPaper's claims: WiSync/WiSyncNoT speedups rise with a slower NoC and fall\n\
             with a faster one; the L2 variant barely moves the needle; doubling the\n\
             BM latency (SlowBMEM) has almost no effect."
        }
        other => panic!("no text table for figure {other:?}"),
    };
    out + claims + "\n"
}

/// Appends `header` (when not empty) and `rows` as fixed-width lines:
/// the first column left-aligned to its width, every other column
/// right-aligned after one space.
fn table(
    out: &mut String,
    widths: &[usize],
    header: &[&str],
    rows: impl Iterator<Item = Vec<String>>,
) {
    let header = (!header.is_empty()).then(|| header.iter().map(|h| h.to_string()).collect());
    for row in header.into_iter().chain(rows) {
        *out += &format!("{:<w$}", row[0], w = widths[0]);
        for (cell, w) in row[1..].iter().zip(&widths[1..]) {
            *out += &format!(" {cell:>w$}");
        }
        *out += "\n";
    }
}

/// A table row: a first cell, then `rest`.
fn row(first: impl std::fmt::Display, rest: impl IntoIterator<Item = String>) -> Vec<String> {
    std::iter::once(first.to_string()).chain(rest).collect()
}

/// A row of `obj[x]` followed by the cycle counts `obj[cycles]` in
/// [`sci`] form.
fn sci_row(obj: &Json, x: &str, cycles: &str) -> Vec<String> {
    row(
        int(field(obj, x)),
        items(obj, cycles).iter().map(|c| sci(int(c))),
    )
}

/// Splits rows into runs of consecutive rows sharing the string field
/// `key`, one figure panel each, labelled with the paper's panel
/// letters (64-core / 128-core).
fn panels<'a>(rows: &[&'a Json], key: &str) -> Vec<(&'static str, Vec<&'a Json>)> {
    let mut out: Vec<(&str, Vec<&Json>)> = Vec::new();
    for &row in rows {
        let label = match text(row, key) {
            "Loop2" => "(a/d) Loop 2",
            "Loop3" => "(b/e) Loop 3",
            "Loop6" => "(c/f) Loop 6",
            "FIFO" => "(a/d) FIFO",
            "LIFO" => "(b/e) LIFO",
            "ADD" => "(c/f) ADD",
            other => panic!("no panel for {other:?}"),
        };
        match out.last_mut() {
            Some((last, panel)) if *last == label => panel.push(row),
            _ => out.push((label, vec![row])),
        }
    }
    out
}

/// Formats a cycle count compactly (e.g. `1.03e6`).
fn sci(v: u64) -> String {
    if v < 10_000 {
        format!("{v}")
    } else {
        format!("{:.2e}", v as f64)
    }
}

// Strict accessors for the result documents the crate writes (figure
// and MAC-lab rows): a missing or mistyped field is a bug, so it panics.

pub(crate) fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
    obj.get(key)
        .unwrap_or_else(|| panic!("result row has no {key:?} field: {obj:?}"))
}

pub(crate) fn text<'a>(obj: &'a Json, key: &str) -> &'a str {
    match field(obj, key) {
        Json::Str(s) => s,
        other => panic!("{key:?} is not a string: {other:?}"),
    }
}

fn items<'a>(obj: &'a Json, key: &str) -> &'a [Json] {
    match field(obj, key) {
        Json::Arr(items) => items,
        other => panic!("{key:?} is not an array: {other:?}"),
    }
}

pub(crate) fn int(x: &Json) -> u64 {
    match x {
        Json::U64(n) => *n,
        other => panic!("not an unsigned integer: {other:?}"),
    }
}

pub(crate) fn num(x: &Json) -> f64 {
    match x {
        Json::F64(f) => *f,
        Json::U64(n) => *n as f64,
        other => panic!("not a number: {other:?}"),
    }
}

fn floats(obj: &Json, key: &str) -> Vec<f64> {
    items(obj, key).iter().map(num).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_jobs_keep_global_indices() {
        let all = build_jobs(true);
        let fig9 = figure_jobs(true, "fig9");
        assert!(!fig9.is_empty());
        for (index, job) in &fig9 {
            assert_eq!(all[*index as usize].name, job.name);
            assert!(job.name.starts_with("fig9/"));
        }
        // table5 is served from the fig10 jobs.
        let t5 = figure_jobs(true, "table5");
        assert!(t5.iter().all(|(_, j)| j.name.starts_with("fig10/")));
        assert!(figure_jobs(true, "fig99").is_empty());
    }

    #[test]
    fn figure_names_cover_grid_and_table5() {
        let names = figure_names(true);
        for expected in ["fig7", "fig8", "fig9", "fig10", "fig11", "table4", "table5"] {
            assert!(names.contains(&expected.to_string()), "missing {expected}");
        }
    }

    #[test]
    fn group_rows_stamps_global_seed() {
        let reports = figure_reports(
            [(7u64, "figX/row".to_string(), Json::U64(1))],
            0xC0DE,
            false,
        );
        let entry = &items(&reports["figX"], "rows")[0];
        assert_eq!(
            entry.get("seed"),
            Some(&Json::Str(format!("0x{:016x}", derive_seed(0xC0DE, 7))))
        );
    }

    fn committed(file: &str) -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/").to_string() + file;
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    fn committed_doc(figure: &str) -> Json {
        Json::parse(&committed(&format!("{figure}.json"))).expect("committed JSON")
    }

    #[test]
    fn committed_text_tables_render_from_committed_json() {
        let figures = figure_names(false);
        assert_eq!(figures.len(), 9, "{figures:?}");
        for figure in figures {
            let text = figure_text(&committed_doc(&figure));
            assert_eq!(text, committed(&format!("{figure}.txt")), "{figure}.txt");
        }
    }

    #[test]
    fn text_tables_carry_quick_and_mac_stamps() {
        let Json::Obj(mut fields) = committed_doc("fig7") else {
            panic!("fig7.json is not an object")
        };
        // `Json::get` resolves a repeated key to its last occurrence.
        fields.push(("quick".to_string(), Json::Bool(true)));
        fields.push(("mac".to_string(), Json::Str("token".to_string())));
        let stamps = "Quick grid: fewer rows and cores than the paper.\n\
                      MAC policy: token (not the paper's backoff).\n\n";
        assert_eq!(
            figure_text(&Json::Obj(fields)),
            stamps.to_string() + &committed("fig7.txt")
        );
    }

    /// The 128-core panels are appended to the full grid only: every
    /// committed row keeps the global index its seed was derived from,
    /// and the quick grid gains nothing.
    #[test]
    fn full_grid_appends_128_core_panels_after_committed_jobs() {
        let names: Vec<String> = build_jobs(false).into_iter().map(|j| j.name).collect();
        let mut committed_rows = 0;
        for figure in ["table4", "fig7", "fig8", "fig9", "fig10", "fig11"] {
            let doc = committed_doc(figure);
            for row in items(&doc, "rows") {
                let name = format!("{figure}/{}", text(row, "row"));
                let index = names.iter().position(|n| *n == name).expect(&name);
                let seed = derive_seed(int(field(&doc, "base_seed")), index as u64);
                assert_eq!(text(row, "seed"), format!("0x{seed:016x}"), "{name} moved");
                committed_rows += 1;
            }
        }
        assert_eq!(committed_rows, 84);
        assert!(names[..84].iter().all(|n| !n.contains("_128c")));
        assert_eq!(names.len(), 84 + 20 + 27);
        for panel in ["fig8_128c".to_string(), "fig9_128c".to_string()] {
            assert!(
                figure_names(false).contains(&panel),
                "full grid lacks {panel}"
            );
            assert!(
                !figure_names(true).contains(&panel),
                "quick grid has {panel}"
            );
        }
    }

    #[test]
    fn sci_formats() {
        assert_eq!(sci(123), "123");
        assert_eq!(sci(1_030_000), "1.03e6");
    }
}
