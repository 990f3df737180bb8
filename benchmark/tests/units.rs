//! Arithmetic the numbers rest on: span self time, quartiles, `/proc`
//! parsing, the JSON codec and `compare`'s verdicts.

use pdnn_benchmark::compare::{judge, Verdict};
use pdnn_benchmark::json::{self, Json};
use pdnn_benchmark::metrics::END_TO_END;
use pdnn_benchmark::procstat::{parse_stat_cpu_seconds, parse_status_peak_rss_mb};
use pdnn_benchmark::stats::{median, quartiles, Summary};
use pdnn_benchmark::trace::{self_ns, total_by_name, Recorder, Span};

fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_overlapping_children() {
    let spans = [
        span(0, None, "root", 0, 100),
        span(1, Some(0), "a", 10, 40),
        // Overlaps `a` on [30, 40]: the union [10, 60] is 50 ns, not 60.
        span(2, Some(0), "b", 30, 60),
        // Inside `b`'s interval: adds nothing.
        span(3, Some(0), "c", 35, 50),
        // Sticks out past the parent: clipped to [90, 100].
        span(4, Some(0), "d", 90, 120),
        // A grandchild is not a child of the root.
        span(5, Some(1), "e", 12, 14),
    ];
    assert_eq!(self_ns(&spans, 0), 100 - 50 - 10);
    // `a` has one child of 2 ns.
    assert_eq!(self_ns(&spans, 1), 30 - 2);
    // A leaf is all self time.
    assert_eq!(self_ns(&spans, 2), 30);
}

#[test]
fn recorder_nests_spans_under_the_innermost_open_one() {
    let rec = Recorder::new();
    let out = rec.time("outer", || {
        rec.time("inner", || 1) + rec.time("inner", || 2)
    });
    assert_eq!(out, 3);
    let spans = rec.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[0].parent, None);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(0));
    assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    assert!(spans[1].end_ns <= spans[2].start_ns);
    assert_eq!(total_by_name(&spans, "inner").1, 2);
    // Parts add up: self time plus children is the whole.
    let children: u64 = spans[1..].iter().map(Span::duration_ns).sum();
    assert_eq!(self_ns(&spans, 0) + children, spans[0].duration_ns());
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn quartiles_follow_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    let (q1, q2, q3) = quartiles(&v);
    assert!(close(q1, 2.75) && close(q2, 5.5) && close(q3, 8.25));
    // Order of the input does not matter.
    let mut shuffled = v.clone();
    shuffled.reverse();
    shuffled.swap(2, 7);
    assert_eq!(quartiles(&shuffled), (q1, q2, q3));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    let (q1, q2, q3) = quartiles(&[1.0, 2.0]);
    assert!(close(q1, 0.75) && close(q2, 1.5) && close(q3, 2.25));
    // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5], n=4) == [1.5, 4.0, 5.5]
    let (q1, q2, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0]);
    assert!(close(q1, 1.5) && close(q2, 4.0) && close(q3, 5.5));
    assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
}

#[test]
fn median_and_spread() {
    assert!(close(median(&[5.0, 1.0, 3.0]), 3.0));
    assert!(close(median(&[4.0, 1.0, 3.0, 2.0]), 2.5));
    let s = Summary::of(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0]);
    assert_eq!(s.n, 9);
    assert!(close(s.median, 4.0));
    assert!(close(s.spread(), (5.5 - 1.5) / 4.0));
}

#[test]
fn stat_parsing_survives_spaces_and_parentheses_in_comm() {
    // Fields after comm: state ppid pgrp session tty tpgid flags minflt
    // cminflt majflt cmajflt utime stime ...
    let tail = "S 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0 3 0 100 200 300";
    for comm in ["(pdnn-benchmark)", "(my prog)", "(a) b (c))", "(:-) )"] {
        let stat = format!("4242 {comm} {tail}");
        let cpu = parse_stat_cpu_seconds(&stat).expect(comm);
        assert!(close(cpu, 3.25), "{comm}: {cpu}");
    }
    assert_eq!(parse_stat_cpu_seconds("no parenthesis here"), None);
    assert_eq!(parse_stat_cpu_seconds("1 (short) S 1 2"), None);
    assert_eq!(
        parse_stat_cpu_seconds("1 (x) S 1 2 3 4 5 6 7 8 9 10 abc 5"),
        None
    );
}

#[test]
fn status_parsing_reads_vm_hwm() {
    let status = "Name:\tx\nVmPeak:\t  999999 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 100 kB\n";
    assert!(close(parse_status_peak_rss_mb(status).unwrap(), 50.0));
    assert_eq!(parse_status_peak_rss_mb("Name:\tx\n"), None);
}

#[test]
fn this_process_has_cpu_time_and_memory() {
    assert!(pdnn_benchmark::procstat::cpu_seconds().unwrap() >= 0.0);
    assert!(pdnn_benchmark::procstat::peak_rss_mb().unwrap() > 0.0);
}

#[test]
fn json_round_trips_and_keeps_every_digit() {
    let x = 1.203_456_789_012_345_6_f64;
    let doc = Json::obj([
        ("a", Json::Num(x)),
        ("s", Json::Str("q\"uo\\te\n\ttab é".into())),
        ("n", Json::Null),
        ("b", Json::Bool(true)),
        (
            "l",
            Json::Arr(vec![Json::Num(-3.0), Json::obj([("k", Json::Num(1e-9))])]),
        ),
        ("e", Json::Obj(Vec::new())),
    ]);
    let text = doc.render();
    assert!(!text.contains('\n'), "one line: {text}");
    let back = json::parse(&text).unwrap();
    assert_eq!(back, doc);
    assert_eq!(
        back.get("a").and_then(Json::as_f64).map(f64::to_bits),
        Some(x.to_bits())
    );
    // Non-finite numbers cannot be JSON: they become null.
    assert_eq!(Json::num(f64::NAN), Json::Null);
    assert_eq!(Json::Num(f64::INFINITY).render(), "null");
}

#[test]
fn json_rejects_garbage() {
    for bad in [
        "",
        "{",
        "[1,]",
        "{\"a\" 1}",
        "\"open",
        "{\"a\":1} x",
        "nul",
        "1e",
        "\"\\q\"",
    ] {
        assert!(json::parse(bad).is_err(), "accepted {bad:?}");
    }
    let deep = "[".repeat(100) + &"]".repeat(100);
    assert!(json::parse(&deep).is_err());
    assert_eq!(json::parse(" [ ] ").unwrap(), Json::Arr(Vec::new()));
    assert_eq!(json::parse("\"\\u00e9\"").unwrap(), Json::Str("é".into()));
}

fn metric(name: &str) -> &'static pdnn_benchmark::metrics::EndToEnd {
    END_TO_END.iter().find(|m| m.name == name).unwrap()
}

fn rounds(values: &[f64]) -> Vec<Option<f64>> {
    values.iter().copied().map(Some).collect()
}

#[test]
fn compare_verdicts() {
    let train_s = metric("train_s");
    // Rounds differ by problem instance (7 or 8 iterations) far more
    // than the bound, but each repeats within 2%: resolved, and agreed.
    let a = rounds(&[1.00, 1.15, 1.00, 1.45, 1.00, 1.15, 0.86, 1.00, 1.15]);
    let b: Vec<Option<f64>> = a.iter().map(|x| x.map(|x| x * 1.02)).collect();
    assert_eq!(judge(&a, &b, train_s), Verdict::Agree);
    assert_eq!(judge(&b, &a, train_s), Verdict::Agree);
    // Every round 40% slower: resolved, and not agreed.
    let slow: Vec<Option<f64>> = a.iter().map(|x| x.map(|x| x * 1.4)).collect();
    assert_eq!(judge(&a, &slow, train_s), Verdict::Disagree);
    // Equal medians, but the same round comes out up to 50% apart:
    // the runs cannot resolve a 25% bound.
    let noisy = rounds(&[1.5, 0.8, 1.5, 1.0, 0.7, 1.0, 1.3, 0.6, 1.6]);
    assert_eq!(judge(&a, &noisy, train_s), Verdict::Unresolved);
    // A failed round drops out of its pair and out of the medians.
    let mut holed = b.clone();
    holed[3] = None;
    assert_eq!(judge(&a, &holed, train_s), Verdict::Agree);
    assert_eq!(judge(&a, &[None; 9], train_s), Verdict::Disagree);
}

#[test]
fn compare_tolerates_spawn_jitter_on_a_tiny_setup() {
    // 3 ms of process start, quartiles 27% of the median apart and a
    // 30% gap between the medians: well inside max(25%, 0.05 s).
    let setup_s = metric("setup_s");
    let a = rounds(&[0.0027, 0.0024, 0.0035, 0.0026, 0.0031, 0.0025, 0.0034]);
    let b = rounds(&[0.0036, 0.0033, 0.0029, 0.0041, 0.0035, 0.0045, 0.0030]);
    assert_eq!(judge(&a, &b, setup_s), Verdict::Agree);
    // The floor is absolute: it does not excuse a set-up that grew by
    // a tenth of a second.
    let grown = rounds(&[0.11, 0.10, 0.12, 0.11, 0.10, 0.12, 0.11]);
    assert_eq!(judge(&a, &grown, setup_s), Verdict::Disagree);
    // No other metric has a floor.
    assert_eq!(judge(&a, &b, metric("train_s")), Verdict::Unresolved);
}
