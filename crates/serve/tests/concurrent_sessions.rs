//! Concurrent-session determinism suite: N client sessions against one
//! live [`Server`], each replaying a seeded mix.
//!
//! The tentpole contract under test: every session's response stream
//! is **byte-identical (modulo `*_ns` fields) to a solo replay of the
//! same mix against the same warm memo**, even while the sessions run
//! simultaneously over the one shared pool — plus cross-connection
//! memo warming and per-session `stats` barrier correctness.

use rlckit_serve::{ServeConfig, Server};

/// Deterministic splitmix64 — the seed fully determines each mix.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const NODES: [&str; 3] = ["250nm", "100nm", "100nm_eps33"];

/// The daemon's 5-point warm grid in nH/mm: `4.95 * i / 4`.
fn grid_l(i: usize) -> f64 {
    4.95 * i as f64 / 4.0
}

/// A seeded mix of `n` requests over **on-grid keys only** (every
/// query hits a 5-point warm grid), with a `stats` barrier roughly
/// every sixth request. On-grid keys keep the shared memo's entry
/// count constant, which is what makes even the stats lines
/// solo-replayable under concurrency.
fn hot_mix(seed: u64, n: usize) -> String {
    let mut state = seed;
    let mut out = String::new();
    for id in 1..=n {
        let r = splitmix64(&mut state);
        if id % 6 == 0 {
            out.push_str(&format!("{{\"id\":{id},\"op\":\"stats\"}}\n"));
            continue;
        }
        let node = NODES[(r % 3) as usize];
        let l = grid_l(((r >> 8) % 5) as usize);
        match (r >> 16) % 3 {
            0 => out.push_str(&format!(
                "{{\"id\":{id},\"op\":\"optimum\",\"node\":\"{node}\",\"l_nh_mm\":{l}}}\n"
            )),
            1 => out.push_str(&format!(
                "{{\"id\":{id},\"op\":\"lcrit\",\"node\":\"{node}\",\"l_nh_mm\":{l}}}\n"
            )),
            _ => out.push_str(&format!(
                "{{\"id\":{id},\"op\":\"route_delay\",\"node\":\"{node}\",\"l_nh_mm\":{l},\
                 \"length_mm\":{}}}\n",
                5 + (r >> 24) % 40
            )),
        }
    }
    out
}

fn run_session(server: &Server, input: &str) -> (String, rlckit_serve::ServeSummary) {
    let mut out = Vec::new();
    let summary = server.serve(input.as_bytes(), &mut out).unwrap();
    (String::from_utf8(out).unwrap(), summary)
}

/// Removes every `"<key>_ns":<digits>` field (and a trailing comma) —
/// the documented wall-clock escape hatch of the byte-identity
/// contract.
fn strip_ns_fields(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let mut s = line.to_string();
        while let Some(found) = s.find("_ns\":") {
            let key_start = s[..found].rfind('"').unwrap_or(0);
            let mut end = found + "_ns\":".len();
            while s.as_bytes().get(end).is_some_and(u8::is_ascii_digit) {
                end += 1;
            }
            if s.as_bytes().get(end) == Some(&b',') {
                end += 1;
            }
            s.replace_range(key_start..end, "");
        }
        out.push_str(&s);
        out.push('\n');
    }
    out
}

/// The tentpole acceptance check, in-process: four sessions replay
/// seeded hot mixes *simultaneously* against one warm server, and each
/// session's stream — responses **and** barrier-drained stats lines —
/// is byte-identical (modulo `*_ns`) to replaying it alone against an
/// identically warmed server.
#[test]
fn concurrent_sessions_match_their_solo_replays_byte_for_byte() {
    let mixes: Vec<String> = (0..4).map(|i| hot_mix(0xC0FFEE + i, 30)).collect();

    let shared = Server::new(ServeConfig::default());
    assert_eq!(shared.warm_grid(5), 15);
    let concurrent: Vec<(String, rlckit_serve::ServeSummary)> = std::thread::scope(|scope| {
        let handles: Vec<_> = mixes
            .iter()
            .map(|mix| scope.spawn(|| run_session(&shared, mix)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (mix, (out, summary)) in mixes.iter().zip(&concurrent) {
        // Solo replay on a fresh, identically warmed server.
        let solo_server = Server::new(ServeConfig::default());
        solo_server.warm_grid(5);
        let (solo_out, solo_summary) = run_session(&solo_server, mix);
        assert_eq!(
            strip_ns_fields(out),
            strip_ns_fields(&solo_out),
            "a concurrent session must be byte-identical to its solo replay"
        );
        assert_eq!(*summary, solo_summary);
        // Hot mix on a warm grid: every query is a hit, nothing solves.
        assert_eq!(summary.misses, 0);
        assert_eq!(summary.errors, 0);
        // Per-connection response order: ids come back 1..=n.
        for (i, line) in out.lines().enumerate() {
            let expect = format!("{{\"id\":{},", i + 1);
            assert!(line.starts_with(&expect), "out of order at line {i}: {line}");
        }
    }
}

/// Cross-connection warming: a key solved by one connection is a memo
/// hit for every later connection — and when two connections race on
/// the *same* cold key, the pinned shard worker serializes them so
/// exactly one solve happens in total.
#[test]
fn keys_solved_on_one_connection_hit_on_the_next() {
    let server = Server::new(ServeConfig::default());
    // Off-grid key: nothing pre-warmed.
    let ask = "{\"id\":1,\"op\":\"optimum\",\"node\":\"100nm\",\"l_nh_mm\":3.1415}\n\
               {\"id\":2,\"op\":\"optimum\",\"node\":\"100nm\",\"l_nh_mm\":3.1415}\n";
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| run_session(&server, ask).1);
        let b = scope.spawn(|| run_session(&server, ask).1);
        (a.join().unwrap(), b.join().unwrap())
    });
    // The two racing sessions asked the same key four times in total:
    // the shard worker serialized them, so exactly one ask solved.
    assert_eq!(a.misses + b.misses, 1, "{a:?} {b:?}");
    assert_eq!(a.hits + b.hits, 3, "{a:?} {b:?}");
    // A third connection, after both: pure hits.
    let (out, summary) = run_session(&server, ask);
    assert_eq!(summary.hits, 2);
    assert_eq!(summary.misses, 0);
    assert!(out.lines().all(|l| l.contains("\"source\":\"memo\"")), "{out}");
}

/// `stats` is a per-session barrier: each session's stats lines report
/// exactly that session's preceding prefix (its own hits/misses, zero
/// in flight), no matter how many sibling sessions are hammering the
/// same pool at that moment.
#[test]
fn stats_barriers_stay_session_scoped_under_concurrency() {
    let server = Server::new(ServeConfig::default());
    assert_eq!(server.warm_grid(5), 15);
    // Each session: 2 distinct on-grid queries, stats, 2 more, stats.
    let session_input = |node: &str| {
        format!(
            "{{\"id\":1,\"op\":\"optimum\",\"node\":\"{node}\",\"l_nh_mm\":{}}}\n\
             {{\"id\":2,\"op\":\"optimum\",\"node\":\"{node}\",\"l_nh_mm\":{}}}\n\
             {{\"id\":3,\"op\":\"stats\"}}\n\
             {{\"id\":4,\"op\":\"lcrit\",\"node\":\"{node}\",\"l_nh_mm\":{}}}\n\
             {{\"id\":5,\"op\":\"stats\"}}\n",
            grid_l(0),
            grid_l(1),
            grid_l(2),
        )
    };
    let outputs: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = NODES
            .iter()
            .map(|node| {
                let input = session_input(node);
                let server = &server;
                scope.spawn(move || run_session(server, &input).0)
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for out in &outputs {
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5, "{out}");
        // First barrier: exactly this session's 2 preceding hits.
        assert!(lines[2].contains("\"hits\":2,\"misses\":0"), "{}", lines[2]);
        assert!(lines[2].contains("\"in_flight\":0"), "{}", lines[2]);
        // Second barrier: 3 preceding hits — unmoved by the siblings'
        // concurrent traffic (their hits land in their own stats).
        assert!(lines[4].contains("\"hits\":3,\"misses\":0"), "{}", lines[4]);
        assert!(lines[4].contains("\"in_flight\":0"), "{}", lines[4]);
        // The shared memo stayed at the warm-grid 15 throughout.
        assert!(lines[2].contains("\"entries\":15"), "{}", lines[2]);
        assert!(lines[4].contains("\"entries\":15"), "{}", lines[4]);
    }
}
