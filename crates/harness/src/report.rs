//! Rendering figure data as markdown tables and CSV files.

use crate::figures::{ConfigCurve, CurvePoint, FigureData};
use dynamid_core::StandardConfig;
use std::fmt::{Display, Write as _};

/// One CSV column: its header name and the formatter of its cell in a row.
pub(crate) type Column<R> = (&'static str, fn(&R) -> String);

/// Renders `rows` as CSV: the column names as the header line, then one
/// line per row. Header and cells come from the same column list, so they
/// cannot drift apart.
pub(crate) fn csv<R>(columns: &[Column<R>], rows: &[R]) -> String {
    let mut out = columns.iter().map(|(name, _)| *name).collect::<Vec<_>>().join(",");
    out.push('\n');
    for row in rows {
        let cells: Vec<String> = columns.iter().map(|(_, cell)| cell(row)).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// One markdown table row: `| a | b |`.
pub(crate) fn table_row<T: Display>(cells: impl IntoIterator<Item = T>) -> String {
    let mut row = String::from("|");
    for cell in cells {
        let _ = write!(row, " {cell} |");
    }
    row + "\n"
}

/// The header of a markdown table: its column row and the `|---|---|` rule.
pub(crate) fn table_head<T: Display>(cells: impl IntoIterator<Item = T>) -> String {
    let cells: Vec<T> = cells.into_iter().collect();
    format!("{}|{}\n", table_row(&cells), "---|".repeat(cells.len()))
}

/// Markdown throughput table: one row per client count, one column per
/// configuration (the paper's Figures 5/7/9/11/13 as a table).
pub fn throughput_markdown(data: &FigureData) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "### {} — throughput (interactions/minute) [{}]",
        data.pair.title, data.pair.throughput_id
    );
    out.push('\n');
    let configs = data.curves.iter().map(|c| c.config.paper_name());
    out.push_str(&table_head(std::iter::once("clients").chain(configs)));
    let n_points = data.curves.first().map_or(0, |c| c.points.len());
    for i in 0..n_points {
        let ipm = data.curves.iter().map(|c| format!("{:.0}", c.points[i].ipm));
        out.push_str(&table_row(
            std::iter::once(data.curves[0].points[i].clients.to_string()).chain(ipm),
        ));
    }
    let peaks = data.curves.iter().map(|c| format!("**{:.0}**", c.peak().ipm));
    out.push_str(&table_row(std::iter::once("**peak**".to_string()).chain(peaks)));
    out
}

/// Markdown CPU-utilization table at each configuration's peak (the
/// paper's Figures 6/8/10/12/14).
pub fn cpu_markdown(data: &FigureData) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "### {} — CPU utilization at peak throughput (%) [{}]",
        data.pair.title, data.pair.cpu_id
    );
    out.push('\n');
    let columns = "configuration|WebServer|Servlet|EJB|Database|web NIC Mb/s|lock wait ms/itx";
    out.push_str(&table_head(columns.split('|')));
    for c in &data.curves {
        let p = c.peak();
        let fmt = |v: Option<f64>| match v {
            Some(u) => format!("{:.0}", u * 100.0),
            None => "—".to_string(),
        };
        // When the servlet shares the web machine its CPU is reported
        // under WebServer, as in the paper.
        let servlet =
            if c.config.topology().has_dedicated_container() { p.cpu_of("servlet") } else { None };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {:.1} | {:.2} |",
            c.config.paper_name(),
            fmt(p.web_cpu()),
            fmt(servlet),
            fmt(p.cpu_of("ejb")),
            fmt(p.cpu_of("db")),
            p.web_nic().unwrap_or(0.0),
            p.lock_wait_ms_per_interaction,
        );
    }
    out
}

/// CSV of the full sweep (one line per config × client count).
pub fn sweep_csv(data: &FigureData) -> String {
    let id = data.pair.throughput_id;
    let rows: Vec<(&str, StandardConfig, &CurvePoint)> =
        data.curves.iter().flat_map(|c| c.points.iter().map(move |p| (id, c.config, p))).collect();
    fn cpu(v: Option<f64>) -> String {
        v.map_or(String::new(), |u| format!("{u:.4}"))
    }
    csv(
        &[
            ("figure", |(id, _, _): &(&str, StandardConfig, &CurvePoint)| id.to_string()),
            ("config", |(_, c, _)| c.paper_name().to_string()),
            ("clients", |(_, _, p)| p.clients.to_string()),
            ("ipm", |(_, _, p)| format!("{:.1}", p.ipm)),
            ("error_rate", |(_, _, p)| format!("{:.4}", p.error_rate)),
            ("web_cpu", |(_, _, p)| cpu(p.web_cpu())),
            ("servlet_cpu", |(_, _, p)| cpu(p.cpu_of("servlet"))),
            ("ejb_cpu", |(_, _, p)| cpu(p.cpu_of("ejb"))),
            ("db_cpu", |(_, _, p)| cpu(p.cpu_of("db"))),
            ("web_nic_mbps", |(_, _, p)| format!("{:.2}", p.web_nic().unwrap_or(0.0))),
            ("lock_wait_ms", |(_, _, p)| format!("{:.3}", p.lock_wait_ms_per_interaction)),
            ("latency_p50_ms", |(_, _, p)| format!("{:.1}", p.latency_p50_ms)),
            ("latency_p90_ms", |(_, _, p)| format!("{:.1}", p.latency_p90_ms)),
        ],
        &rows,
    )
}

/// One-line peak summary per configuration (the paper's in-text numbers).
pub fn peak_summary_line(curve: &ConfigCurve) -> String {
    let p = curve.peak();
    format!(
        "{:<22} peak {:>9.0} ipm at {:>6} clients (db {:>3.0}%, web {:>3.0}%)",
        curve.config.paper_name(),
        p.ipm,
        p.clients,
        p.cpu_of("db").unwrap_or(0.0) * 100.0,
        p.web_cpu().unwrap_or(0.0) * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{find_figure, run_figure};
    use crate::HarnessConfig;

    #[test]
    fn reports_render() {
        let cfg = HarnessConfig::smoke();
        let data = run_figure(find_figure("fig05").unwrap(), &cfg);
        let md = throughput_markdown(&data);
        assert!(md.contains("fig05"));
        assert!(md.contains("WsPhp-DB"));
        assert!(md.contains("**peak**"));
        let cpu = cpu_markdown(&data);
        assert!(cpu.contains("Database"));
        let csv = sweep_csv(&data);
        // Header + one line per config x point.
        let expected = 1 + cfg.configs.len() * cfg.clients.len();
        assert_eq!(csv.lines().count(), expected);
        let line = peak_summary_line(&data.curves[0]);
        assert!(line.contains("peak"));
    }
}
