//! Terminal rendering: ASCII Gantt charts and summary tables.
//!
//! Builds on [`pdnn_util::report::Table`] for aligned text / CSV
//! output, so every sink shares one table implementation.

use crate::event::Telemetry;
use crate::metrics::CommClass;
use crate::span::SpanRecord;
use pdnn_util::report::Table;

/// Render per-rank span lists as an ASCII Gantt chart of `width`
/// columns. Rank rows are in input order; spans are drawn with the
/// first character of their name, idle time as `.`, and overlaps
/// resolved last-writer-wins.
pub fn render_gantt(ranks: &[Vec<SpanRecord>], width: usize) -> String {
    assert!(width >= 10, "chart needs at least 10 columns");
    let t_max = ranks
        .iter()
        .flat_map(|spans| spans.iter().map(|s| s.end))
        .fold(0.0f64, f64::max);
    if t_max <= 0.0 {
        return String::from("(empty timeline)\n");
    }
    let scale = width as f64 / t_max;
    let mut out = String::new();
    let mut legend: Vec<&str> = Vec::new();
    for (rank, spans) in ranks.iter().enumerate() {
        let mut row = vec!['.'; width];
        for span in spans {
            if !legend.contains(&span.name()) {
                legend.push(span.name());
            }
            let c = span.name().chars().next().unwrap_or('?');
            let lo = (span.start * scale).floor() as usize;
            let hi = ((span.end * scale).ceil() as usize).clamp(lo + 1, width);
            for slot in row.iter_mut().take(hi.min(width)).skip(lo.min(width - 1)) {
                *slot = c;
            }
        }
        out.push_str(&format!(
            "rank {rank:>3} |{}|\n",
            row.iter().collect::<String>()
        ));
    }
    out.push_str(&format!(
        "          0{}{:.4}s\n",
        " ".repeat(width.saturating_sub(8)),
        t_max
    ));
    out.push_str("legend: ");
    for name in legend {
        out.push_str(&format!("{}={} ", name.chars().next().unwrap_or('?'), name));
    }
    out.push('\n');
    out
}

/// Per-phase summary of one telemetry snapshot, longest phase first.
pub fn phase_table(title: &str, telemetry: &Telemetry) -> Table {
    let phases = telemetry.phase_totals();
    let total: f64 = phases.total_seconds().max(f64::MIN_POSITIVE);
    let mut rows: Vec<(String, f64, u64)> = phases
        .phases()
        .map(|(name, tot)| (name.to_string(), tot.seconds, tot.calls))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut table = Table::new(title, &["phase", "seconds", "calls", "share"]);
    for (name, seconds, calls) in rows {
        table.row(&[
            name,
            format!("{seconds:.6}"),
            calls.to_string(),
            format!("{:.1}%", 100.0 * seconds / total),
        ]);
    }
    table
}

/// Per-rank communication summary (the Figures 4–5 split).
pub fn comm_table(title: &str, per_rank: &[(u64, Telemetry)]) -> Table {
    let mut table = Table::new(
        title,
        &[
            "rank",
            "class",
            "seconds",
            "bytes sent",
            "bytes recv",
            "sends",
            "recvs",
        ],
    );
    for (rank, telemetry) in per_rank {
        for class in [CommClass::PointToPoint, CommClass::Collective] {
            let t = telemetry.comm.class(class);
            table.row(&[
                rank.to_string(),
                class.as_str().to_string(),
                format!("{:.6}", t.seconds),
                t.bytes_sent.to_string(),
                t.bytes_received.to_string(),
                t.sends.to_string(),
                t.recvs.to_string(),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::CommClass;
    use crate::span::SpanKind;

    fn span(name: &'static str, start: f64, end: f64) -> SpanRecord {
        SpanRecord::new(name, SpanKind::Scalar, start, end)
    }

    #[test]
    fn gantt_shows_proportional_blocks() {
        let ranks = vec![
            vec![span("compute", 0.0, 8.0), span("reduce", 8.0, 10.0)],
            vec![span("compute", 0.0, 10.0)],
        ];
        let chart = render_gantt(&ranks, 20);
        let lines: Vec<&str> = chart.lines().collect();
        assert!(lines[0].contains("rank   0"));
        let row0: String = lines[0].chars().filter(|&c| c == 'c' || c == 'r').collect();
        assert!(row0.matches('c').count() >= 14, "{chart}");
        assert!(row0.matches('r').count() >= 3, "{chart}");
        let row1: String = lines[1].chars().filter(|&c| c == 'c').collect();
        assert_eq!(row1.len(), 20, "{chart}");
        assert!(chart.contains("legend: c=compute r=reduce"));
    }

    #[test]
    fn idle_time_renders_as_dots() {
        let ranks = vec![vec![span("w", 5.0, 10.0)]];
        let chart = render_gantt(&ranks, 20);
        let row = chart.lines().next().unwrap();
        assert!(row.contains('.'), "{chart}");
        assert!(row.contains('w'), "{chart}");
        let bar: String = row
            .chars()
            .skip_while(|&c| c != '|')
            .skip(1)
            .take(20)
            .collect();
        assert!(bar.starts_with(".........."), "{chart}");
    }

    #[test]
    fn empty_timeline_is_handled() {
        assert_eq!(render_gantt(&[], 20), "(empty timeline)\n");
        assert_eq!(render_gantt(&[vec![]], 20), "(empty timeline)\n");
    }

    #[test]
    #[should_panic(expected = "at least 10 columns")]
    fn narrow_chart_rejected() {
        render_gantt(&[], 2);
    }

    #[test]
    fn phase_table_sorts_by_share() {
        let mut t = Telemetry::default();
        t.spans.push(span("small", 0.0, 1.0));
        t.spans.push(span("big", 1.0, 10.0));
        let table = phase_table("phases", &t);
        assert_eq!(table.len(), 2);
        let csv = table.to_csv();
        let big_pos = csv.find("big").unwrap();
        let small_pos = csv.find("small").unwrap();
        assert!(big_pos < small_pos, "{csv}");
        assert!(csv.contains("90.0%"), "{csv}");
    }

    #[test]
    fn comm_table_lists_both_classes_per_rank() {
        let mut t = Telemetry::default();
        t.comm.on_send(CommClass::Collective, 256);
        let table = comm_table("comm", &[(0, t.clone()), (1, t)]);
        assert_eq!(table.len(), 4);
        let csv = table.to_csv();
        assert!(csv.contains("collective"));
        assert!(csv.contains("256"));
    }
}
