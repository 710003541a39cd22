//! Seeded grammar fuzz for the request path: random and mutated command
//! lines — every verb at wrong arities, huge, negative and malformed
//! numbers, `DEADLINE`/`TRACE` prefixes, `seq=` tokens, stray separators
//! and non-ASCII whitespace — fed through [`Service::handle_payload`].
//!
//! The contract under test: no panic, and exactly one reply line per
//! non-blank command line, each starting with `OK ` or `ERR `. The one
//! exception is a frame whose sole line is `METRICS` or `SLOWLOG`, whose
//! multi-line body is the reply.

use egobtw_gen::classic;
use egobtw_service::catalog::Mode;
use egobtw_service::{
    parse_command, split_deadline, split_trace, Command, Service, MAX_UPDATE_OPS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VERBS: [&str; 15] = [
    "LOAD", "TOPK", "SCORE", "COMMON", "UPDATE", "STATS", "LIST", "DROP", "COMPACT", "PING",
    "METRICS", "SLOWLOG", "topk", "TOPKX", "NOPE",
];

const NAMES: [&str; 6] = ["g", "g", "h", "missing", "caf\u{e9}", "../up"];

const NUMBERS: [&str; 20] = [
    "0",
    "1",
    "5",
    "33",
    "34",
    "35",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "-1",
    "-0",
    "+5",
    "1e3",
    "0x10",
    "NaN",
    "",
    "\u{663}",
    "7.5",
];

const ENGINES: [&str; 10] = [
    "auto",
    "core::compute_all",
    "core::naive",
    "core::base_search",
    "core::opt_search(\u{3b8}=1.05, degree-relabel)",
    "approx:0.1,0.05",
    "approx:0,0",
    "approx:-1,2",
    "approx:0.1",
    "no::such",
];

/// Characters the mutator splices in: separators the grammar cares
/// about, whitespace `trim`/`split_whitespace` treat specially, and
/// bytes no command should contain.
const SPLICE: [char; 14] = [
    ' ', '\t', ',', '+', '-', ':', '=', '0', '9', '\u{e9}', '\0', '\r', '\u{3000}', '\n',
];

fn pick<'a>(rng: &mut StdRng, pool: &[&'a str]) -> &'a str {
    pool[rng.random_range(0..pool.len())]
}

fn number(rng: &mut StdRng) -> String {
    if rng.random_bool(0.5) {
        rng.random_range(0..40u32).to_string()
    } else {
        pick(rng, &NUMBERS).to_string()
    }
}

fn op(rng: &mut StdRng) -> String {
    match rng.random_range(0..8) {
        0 => pick(rng, &["+", "-", "+1", "+1,", ",", "*1,2", "+1,2,3", "1,2"]).to_string(),
        1 => format!("+{},{}", number(rng), number(rng)),
        n => {
            let sign = if n % 2 == 0 { '+' } else { '-' };
            format!(
                "{sign}{},{}",
                rng.random_range(0..40u32),
                rng.random_range(0..40u32)
            )
        }
    }
}

/// One command line: a verb with an argument list of random arity, drawn
/// mostly from the verb's own grammar so parsing gets past the verb.
fn command(rng: &mut StdRng) -> String {
    let verb = pick(rng, &VERBS);
    let mut toks = vec![verb.to_string()];
    let name = pick(rng, &NAMES).to_string();
    match verb {
        "LOAD" => {
            toks.push(name);
            toks.push(pick(rng, &["no-such-file.snap", "/no/such/dir/g.txt", "\u{e9}"]).into());
            if rng.random_bool(0.7) {
                let mode = pick(rng, &["local", "local:", "lazy:", "delta:", "bogus:"]);
                toks.push(format!("{mode}{}", number(rng)));
            }
        }
        "TOPK" => {
            toks.push(name);
            toks.push(number(rng));
            if rng.random_bool(0.4) {
                toks.push(pick(rng, &ENGINES).into());
            }
        }
        "SCORE" => {
            toks.push(name);
            for _ in 0..rng.random_range(0..6) {
                toks.push(number(rng));
            }
        }
        "COMMON" => {
            toks.push(name);
            toks.push(number(rng));
            toks.push(number(rng));
        }
        "UPDATE" => {
            toks.push(name);
            if rng.random_bool(0.4) {
                toks.push(format!("seq={}", number(rng)));
            }
            let len = if rng.random_bool(0.02) {
                MAX_UPDATE_OPS + 1
            } else {
                rng.random_range(0..6)
            };
            for _ in 0..len {
                toks.push(op(rng));
            }
        }
        "STATS" | "DROP" | "COMPACT" => toks.push(name),
        _ => {}
    }
    // Wrong arities: drop or add a trailing token now and then.
    if toks.len() > 1 && rng.random_bool(0.1) {
        toks.pop();
    }
    if rng.random_bool(0.1) {
        toks.push(number(rng));
    }
    let mut line = toks.join(" ");
    for _ in 0..rng.random_range(0..3) {
        match rng.random_range(0..3) {
            0 => line = format!("TRACE {line}"),
            1 => line = format!("DEADLINE {} {line}", number(rng)),
            _ => {
                line = pick(rng, &["TRACE", "DEADLINE", "DEADLINE 5", "TRACEX"]).to_string()
                    + " "
                    + &line
            }
        }
    }
    line
}

/// Char-level mutations: deletions, splices, and a duplicated span.
fn mutate(rng: &mut StdRng, line: &str) -> String {
    let mut chars: Vec<char> = line.chars().collect();
    for _ in 0..rng.random_range(1..4) {
        let at = rng.random_range(0..chars.len() + 1);
        match rng.random_range(0..3) {
            0 if at < chars.len() => {
                chars.remove(at);
            }
            1 => chars.insert(at, SPLICE[rng.random_range(0..SPLICE.len())]),
            _ => {
                let end = (at + rng.random_range(1..8)).min(chars.len());
                let span: Vec<char> = chars[at..end].to_vec();
                chars.splice(at..at, span);
            }
        }
    }
    chars.into_iter().collect()
}

/// Whether `line` is a `METRICS`/`SLOWLOG` request once its prefixes are
/// stripped — the verbs whose sole-line reply is a multi-line body.
fn is_multiline_verb(line: &str) -> bool {
    let Ok((_, rest)) = split_trace(line) else {
        return false;
    };
    let Ok((_, rest)) = split_deadline(rest) else {
        return false;
    };
    matches!(parse_command(rest), Ok(Command::Metrics | Command::Slowlog))
}

#[test]
fn every_command_line_gets_exactly_one_ok_or_err_line() {
    let service = Service::new();
    let mut rng = StdRng::seed_from_u64(0x5EED_F022);
    for iter in 0..3_000 {
        // Reset the dataset now and then: fuzzed DROPs remove it, and
        // fuzzed UPDATEs would otherwise drift it toward a dense graph.
        if iter % 100 == 0 {
            service.handle_line("DROP g");
            let mode = pick(&mut rng, &["local", "lazy:4", "delta:4", "local:8"]);
            service
                .load_graph("g", classic::karate_club(), Mode::parse(mode).unwrap())
                .unwrap();
        }
        let lines: Vec<String> = (0..rng.random_range(1..5))
            .map(|_| {
                let line = command(&mut rng);
                match rng.random_range(0..4) {
                    0 => mutate(&mut rng, &line),
                    1 => pick(&mut rng, &["", " ", "\t", "\u{3000}"]).to_string(),
                    _ => line,
                }
            })
            .collect();
        let payload = lines.join(if rng.random_bool(0.2) { "\r\n" } else { "\n" });

        let reply = service.handle_payload(&payload);
        let commands: Vec<&str> = payload.lines().filter(|l| !l.trim().is_empty()).collect();
        if let [sole] = commands[..] {
            if is_multiline_verb(sole) {
                assert!(!reply.is_empty(), "{payload:?}: empty body");
                continue;
            }
        }
        let replies: Vec<&str> = reply.split('\n').collect();
        assert_eq!(
            replies.len(),
            commands.len().max(1),
            "{payload:?} → {reply:?}: one reply line per command line"
        );
        for (cmd, line) in commands.iter().zip(&replies) {
            assert!(
                line.starts_with("OK ") || line.starts_with("ERR "),
                "{cmd:?} → {line:?}"
            );
        }
        if commands.is_empty() {
            assert!(replies[0].starts_with("ERR "), "{payload:?} → {reply:?}");
        }
    }
    // The daemon is still healthy after the barrage.
    assert_eq!(service.handle_payload("PING"), "OK pong");
}
