//! Golden digests of the import path, pinned at the commit *before*
//! the trace-pipeline fast path (interned ids, one line scanner, one
//! pair table) and reproduced by it: the rewrite may change how the
//! importers work, never what they return.
//!
//! A ~58 k-transition social trace is rendered as a CONN log (three id
//! styles), as Reality-Mining sightings, as a SASSY ranging CSV and as
//! a hand-edited canonical text file, each with seeded real-log noise:
//! out-of-order blocks, duplicate ups, orphan downs, self-contacts,
//! contacts left open, `"01"` beside `"1"`, an id that only a dropped
//! event carries, CRLF endings, tabs, an EM SPACE-separated line and a
//! vertical-tab-separated one. For each rendering the digest of
//! `(to_binary(trace), labels, format!("{report:?}"))` and of the
//! trace's `TraceAnalytics` is a constant below; so is the digest of
//! what a table of malformed inputs returns, error text included.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sos_sim::world::ContactPhase;
use sos_trace::corpora::{import_bytes, CorpusFormat, ImportedCorpus};
use sos_trace::{codec_binary, codec_text, generate_social_trace, ContactTrace, TraceAnalytics};
use sos_trace::{SocialTraceConfig, TraceError};

/// FNV-1a over length-prefixed parts, so part boundaries count.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(mut self, part: &[u8]) -> Digest {
        for &byte in (part.len() as u64).to_le_bytes().iter().chain(part) {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// 60 nodes in 12 communities over 28 days: 57 798 transitions.
fn tape() -> ContactTrace {
    generate_social_trace(&SocialTraceConfig {
        nodes: 60,
        days: 28,
        communities: 12,
        seed: 20_170_605,
        ..SocialTraceConfig::default()
    })
    .expect("valid synthetic trace")
}

#[derive(Clone, Copy, PartialEq)]
enum Ids {
    /// Sparse decimal ids, `"01"` beside `"1"`: numeric order, stable.
    Numeric,
    /// The same, plus an orphan `down` carrying `"zz"`: the interim id
    /// set is not all-numeric, the final one is.
    NumericWithGhost,
    /// MAC-derived hex: lexical order.
    Hex,
}

fn device_id(style: Ids, node: usize) -> String {
    match (style, node) {
        (Ids::Hex, _) => format!("{:x}:{:02x}", 0x3c00 + node * 37, (node * 11) % 256),
        (_, 0) => "1".to_string(),
        (_, 1) => "01".to_string(),
        _ => (node * 13 + 5).to_string(),
    }
}

fn phase_word(phase: ContactPhase, rng: &mut StdRng) -> &'static str {
    match (phase, rng.gen_range(0u32..20)) {
        (ContactPhase::Up, 0) => "UP",
        (ContactPhase::Up, _) => "up",
        (ContactPhase::Down, 0) => "Down",
        (ContactPhase::Down, _) => "down",
    }
}

/// Moves seeded blocks of lines later in the file, as a buffered
/// collector flushing late does.
fn displace_blocks(lines: &mut [String], blocks: usize, rng: &mut StdRng) {
    for _ in 0..blocks {
        let len = rng.gen_range(1usize..40);
        let shift = rng.gen_range(1usize..200);
        let at = rng.gen_range(0..lines.len() - len - shift);
        lines[at..at + len + shift].rotate_left(len);
    }
}

/// Joins lines with mixed `\n` / `\r\n` endings, sprinkling comments
/// and blank lines between them.
fn join_lines(lines: &[String], rng: &mut StdRng) -> String {
    let mut out = String::from("# rendered for the golden import test\n\n");
    for line in lines {
        out.push_str(line);
        out.push_str(if rng.gen_range(0u32..7) == 0 {
            "\r\n"
        } else {
            "\n"
        });
        match rng.gen_range(0u32..400) {
            0 => out.push_str("# collector restarted\n"),
            1 => out.push_str("   \t \r\n"),
            2 => out.push('\n'),
            _ => {}
        }
    }
    // The last line has no terminator.
    out.push_str("  # eof");
    out
}

fn conn_log(trace: &ContactTrace, style: Ids, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let id = |node: usize| device_id(style, node);
    // Cutting the tail leaves the contacts open there dangling.
    let kept = trace.len() - trace.len() / 40;
    let mut lines: Vec<String> = Vec::with_capacity(kept + kept / 20);
    for (i, ev) in trace.events().take(kept).enumerate() {
        let ms = ev.time.as_millis();
        let secs = match rng.gen_range(0u32..10) {
            0 if ms % 1000 == 0 => format!("{}", ms / 1000),
            1 => format!("{}.{:03}000", ms / 1000, ms % 1000),
            _ => format!("{}.{:03}", ms / 1000, ms % 1000),
        };
        // Pairs in either order, as ONE writes them.
        let (a, b) = if rng.gen_bool(0.5) {
            (id(ev.a), id(ev.b))
        } else {
            (id(ev.b), id(ev.a))
        };
        let conn = match rng.gen_range(0u32..30) {
            0 => "conn",
            1 => "Conn",
            _ => "CONN",
        };
        let phase = phase_word(ev.phase, &mut rng);
        let sep = match i {
            1_000 => "\u{2003}",
            2_000 => "\u{b}",
            _ => match rng.gen_range(0u32..12) {
                0 => "\t",
                1 => "  ",
                2 => " \t ",
                _ => " ",
            },
        };
        let line = [secs.as_str(), conn, &a, &b, phase].join(sep);
        lines.push(match rng.gen_range(0u32..25) {
            0 => format!("  {line}"),
            1 => format!("{line} \t"),
            _ => line.clone(),
        });
        match rng.gen_range(0u32..60) {
            // Re-discovery / double loss report: the same transition
            // again a little later (a duplicate up or an orphan down).
            0 | 1 => lines.push(format!(
                "{}.{:03} CONN {b} {a} {phase}",
                ms / 1000 + 2,
                ms % 1000
            )),
            // A device scanning itself.
            2 => lines.push(format!("{}.{:03} CONN {a} {a} up", ms / 1000, ms % 1000)),
            _ => {}
        }
    }
    displace_blocks(&mut lines, 150, &mut rng);
    if style == Ids::NumericWithGhost {
        // The only non-numeric id rides an orphan down, which the
        // sanitizer drops: interim order lexical, final order numeric.
        lines.insert(5_000, format!("0.500 CONN zz {} down", id(7)));
    }
    join_lines(&lines, &mut rng)
}

/// One sighting per scan period over every third contact, either
/// device reporting, with self-sightings and late blocks.
fn reality_log(trace: &ContactTrace, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let id = |node: usize| device_id(Ids::Hex, node);
    let mut lines: Vec<String> = Vec::new();
    for iv in trace.intervals(trace.end_time()).iter().step_by(3) {
        let (start, end) = (iv.start.as_millis(), iv.end.as_millis());
        let mut t = start;
        while t <= end {
            let (a, b) = if rng.gen_bool(0.5) {
                (id(iv.a), id(iv.b))
            } else {
                (id(iv.b), id(iv.a))
            };
            let sep = if rng.gen_range(0u32..15) == 0 {
                "\t"
            } else {
                " "
            };
            lines.push(format!("{}.{:03}{sep}{a}{sep}{b}", t / 1000, t % 1000));
            if rng.gen_range(0u32..300) == 0 {
                lines.push(format!("{} {a} {a}", t / 1000));
            }
            // Mostly one period; sometimes a missed scan or two.
            t += 300_000 * rng.gen_range(1u64..12).saturating_sub(9).max(1);
        }
    }
    lines.sort_by_key(|l| {
        let secs: f64 = l.split_whitespace().next().unwrap().parse().unwrap();
        (secs * 1000.0) as u64
    });
    displace_blocks(&mut lines, 80, &mut rng);
    join_lines(&lines, &mut rng)
}

/// One row per contact with the sensor artefacts the SASSY adapter
/// documents: impossible rows, error-code ranges, re-detections,
/// self-ranging, exact duplicates, padded fields.
fn sassy_csv(trace: &ContactTrace, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let id = |node: usize| format!("T{:02}", node * 3 + 1);
    let mut lines: Vec<String> = Vec::new();
    for (iv, ev) in trace
        .intervals(trace.end_time())
        .iter()
        .zip(trace.events().iter())
    {
        let (start, end) = (iv.start.as_millis(), iv.end.as_millis());
        let (a, b) = if rng.gen_bool(0.5) {
            (id(iv.a), id(iv.b))
        } else {
            (id(iv.b), id(iv.a))
        };
        let secs = |ms: u64| format!("{}.{:03}", ms / 1000, ms % 1000);
        let range = match rng.gen_range(0u32..40) {
            0 => ",-1".to_string(),
            1 => ",NaN".to_string(),
            2 | 3 => String::new(),
            _ => format!(",{:?}", ev.distance_m),
        };
        let row = match rng.gen_range(0u32..20) {
            0 => format!(" {a} , {b} ,{} ,\t{}{range}", secs(start), secs(end)),
            _ => format!("{a},{b},{},{}{range}", secs(start), secs(end)),
        };
        lines.push(row.clone());
        match rng.gen_range(0u32..80) {
            0 => lines.push(row),
            1 => lines.push(format!("{a},{b},{},{}", secs(end), secs(start))),
            2 => lines.push(format!("{a},{b},{},{}", secs(start), secs(start))),
            3 => lines.push(format!("{a},{a},{},{},2.5", secs(start), secs(end))),
            4 => lines.push(format!(
                "{b},{a},{},{},3.25",
                secs(start + 30_000),
                secs(end + 45_000)
            )),
            _ => {}
        }
    }
    displace_blocks(&mut lines, 60, &mut rng);
    lines.insert(0, "node_a,node_b,start_s,end_s,range_m".to_string());
    join_lines(&lines, &mut rng)
}

/// The canonical text of the tape after a careless editor: tabs,
/// CRLF, padding, a few events rewritten as ONE `CONN` lines.
fn edited_text(trace: &ContactTrace, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::new();
    for line in codec_text::to_text(trace).lines() {
        let mut fields: Vec<String> = line.split(' ').map(str::to_string).collect();
        let is_event = !line.starts_with('#');
        if is_event && rng.gen_range(0u32..50) == 0 && fields[4] == "60.0" {
            // Distance is lost, so only rewrite `down`s at the range…
            // and keep the event's distance out of the comparison by
            // hashing the decoded trace, not comparing to the tape.
            let ms: u64 = fields[0].parse().unwrap();
            fields = vec![
                format!("{}.{:03}", ms / 1000, ms % 1000),
                "CONN".to_string(),
                fields[2].clone(),
                fields[1].clone(),
                fields[3].to_uppercase(),
            ];
        }
        let sep = match rng.gen_range(0u32..10) {
            0 => "\t",
            1 => "   ",
            _ => " ",
        };
        out.push_str(&fields.join(if is_event { sep } else { " " }));
        out.push_str(if rng.gen_bool(0.2) { "\r\n" } else { "\n" });
        if rng.gen_range(0u32..500) == 0 {
            out.push_str("\n# note\n");
        }
    }
    out
}

fn corpus_digest(corpus: &ImportedCorpus) -> String {
    assert!(
        corpus.report.accounts_for_everything(),
        "{:?}",
        corpus.report
    );
    assert_eq!(
        corpus.trace.node_labels().expect("imports are labeled"),
        corpus.id_map.labels()
    );
    for (i, label) in corpus.id_map.labels().iter().enumerate() {
        assert_eq!(corpus.id_map.index_of(label), Some(i));
    }
    Digest::new()
        .bytes(&codec_binary::to_binary(&corpus.trace))
        .bytes(corpus.id_map.labels().join(" ").as_bytes())
        .bytes(format!("{:?}", corpus.report).as_bytes())
        .hex()
}

fn analytics_digest(trace: &ContactTrace) -> String {
    // `{:?}` prints every f64 in shortest round-trip form: equal text
    // is equal bits (no field here can be NaN or -0).
    Digest::new()
        .bytes(format!("{:?}", TraceAnalytics::compute(trace)).as_bytes())
        .hex()
}

fn check(what: &str, format: CorpusFormat, text: &str, lines: usize, want: [&str; 2]) {
    assert!(
        text.lines().count() >= lines,
        "{what}: only {} lines",
        text.lines().count()
    );
    let corpus = import_bytes(format, text.as_bytes()).unwrap_or_else(|e| panic!("{what}: {e}"));
    let got = [corpus_digest(&corpus), analytics_digest(&corpus.trace)];
    assert_eq!(
        got,
        want,
        "{what}: import drifted from the pinned parent output\n{}",
        corpus.report.summary()
    );
}

#[test]
fn noisy_conn_logs_import_exactly_as_pinned() {
    let tape = tape();
    assert!(tape.len() >= 55_000, "{} events", tape.len());
    for (what, style, seed, want) in [
        (
            "numeric ids",
            Ids::Numeric,
            11,
            ["0ccc5183b6e72328", "b91af1d09f570c81"],
        ),
        (
            "numeric ids + ghost",
            Ids::NumericWithGhost,
            12,
            ["50041c114d055539", "b91af1d09f570c81"],
        ),
        (
            "hex ids",
            Ids::Hex,
            13,
            ["ac7bb7f4b61951f4", "2a1c3252f9b59d60"],
        ),
    ] {
        let log = conn_log(&tape, style, seed);
        check(what, CorpusFormat::Crawdad, &log, 50_000, want);
    }
}

#[test]
fn the_ghost_id_changes_the_order_of_dangling_closes_only() {
    // Same seed, so the same log but for the one `zz` line: the final
    // id set and every real event are equal, the dangling closes come
    // out in lexical instead of numeric pair order.
    let tape = tape();
    let import = |style| {
        import_bytes(CorpusFormat::Crawdad, conn_log(&tape, style, 12).as_bytes()).expect("imports")
    };
    let (plain, ghost) = (import(Ids::Numeric), import(Ids::NumericWithGhost));
    assert_eq!(plain.id_map, ghost.id_map);
    assert_eq!(plain.id_map.labels()[..2], ["01", "1"]);
    let closes = plain.report.sanitize.dangling_contacts_closed;
    assert!(closes >= 10, "{closes} dangling contacts");
    assert_eq!(closes, ghost.report.sanitize.dangling_contacts_closed);
    let p: Vec<_> = plain.trace.events().collect();
    let g: Vec<_> = ghost.trace.events().collect();
    let body = p.len() - closes;
    assert_eq!(p[..body], g[..body]);
    assert_ne!(p[body..], g[body..]);
    let mut sorted = g[body..].to_vec();
    sorted.sort_by_key(|ev| (ev.a, ev.b));
    assert_eq!(p[body..], sorted[..]);
}

#[test]
fn noisy_reality_and_sassy_renderings_import_exactly_as_pinned() {
    let tape = tape();
    check(
        "reality",
        CorpusFormat::RealityMining,
        &reality_log(&tape, 21),
        20_000,
        ["5e848571fc4fa656", "3de18c5fb248ddd3"],
    );
    check(
        "sassy",
        CorpusFormat::Sassy,
        &sassy_csv(&tape, 31),
        30_000,
        ["49269b0aa5d3bd62", "30fdb3b570988979"],
    );
}

#[test]
fn edited_canonical_text_and_the_tape_itself_decode_exactly_as_pinned() {
    let tape = tape();
    let decoded = codec_text::from_text(&edited_text(&tape, 41)).expect("decodes");
    assert_eq!(decoded.len(), tape.len());
    assert_eq!(
        [
            Digest::new()
                .bytes(&codec_binary::to_binary(&decoded))
                .hex(),
            Digest::new()
                .bytes(codec_text::to_text(&tape).as_bytes())
                .hex(),
            analytics_digest(&tape),
        ],
        ["f06ccdda4215d1e5", "d98efa243873bba3", "ad9f130cf009eb8a"]
    );
}

fn show(result: Result<ContactTrace, TraceError>) -> String {
    match result {
        Ok(trace) => format!("Ok({:?})", codec_text::to_text(&trace)),
        Err(e) => format!("{e:?} / {e}"),
    }
}

#[test]
fn malformed_inputs_fail_exactly_as_pinned() {
    let conn = [
        "",
        "\n\n# only comments\n",
        "0 CONN 1 2 up\nnot a record\n",
        "0 CONN 1 2 up extra\n",
        "0 CONN 1 2\n",
        "0 CONN 1 2 sideways\n",
        "0 CONN 1 2 UPP\n",
        "0 LINK 1 2 up\n",
        "1e300 CONN 1 2 up\n",
        "-1 CONN 1 2 up\n",
        "zzz CONN 1 2 up\n",
        "nan CONN 1 2 up\n",
        "\n\n  0x10 CONN 1 2 up\n",
        "0 CONN 1\u{1}x 2 up\n",
        "0 CONN 1 \u{7f} up\n",
        "0 CONN a\u{a0}b 2 up\n",
        "0 CONN a\u{85}b 2 up\n",
        "0 CONN a\u{feff}b 2 up\n",
        "0 CONN 1 2 up\n\u{feff}1 CONN 1 2 down\n",
        "0 CONN 1 2 up\r\n\r\n1\u{2003}CONN\u{3000}1\u{2028}2\u{a0}down\r",
        "0 CONN 1 2 down\n",
        "5 CONN 1 1 up\n5 CONN 2 2 down\n",
    ];
    let reality = [
        "",
        "0 aa bb\n300 aa\n",
        "0 aa bb cc\n",
        "x aa bb\n",
        "1e300 aa bb\n",
        "0 a\u{2}a bb\n",
        "0 aa aa\n",
        "\t0\taa\u{b}bb\u{c}\n",
    ];
    let sassy = [
        "",
        "a,b,start,end\n",
        "T1,T2,0\n",
        "T1,T2,0,60,1,2\n",
        "T1,T2,0,60\nT3,T4,oops,90\n",
        "T1,T2,0,60\nT3,T4,10,oops\n",
        "T1,T2,0,60,far\n",
        ",T2,0,60\n",
        "sensor 1,T2,0,60\n",
        "T1,,0,60\n",
        "T1,T\u{3}2,0,60\n",
        "10,T1,T2,x\n20,T3,T4,y\n",
        "T1,T2,1e300,60\n",
        "T1,T2,60,60\n",
        "T1 ,\tT2,\u{2003}0 , 60 ,\u{a0}4.5\u{a0}\n",
    ];
    let text = [
        "",
        "# nodes\n",
        "# nodes x\n",
        "# range_m\n",
        "# range_m far\n",
        "# nodes 2\n# node_ids x y z\n",
        "# node_ids x x\n",
        "0 0 1 up 1.0\nnot a line\n",
        "0 0 1 sideways 1.0\n",
        "0 0 1 up\n",
        "0 0 1 up 1.0 9\n",
        "x 0 1 up 1.0\n",
        "0 -1 1 up 1.0\n",
        "0 0 1 up far\n",
        "# nodes 2\n0 0 1 down 1.0\n",
        "# nodes 2\n\n# pad\n0 0 5 up 1.0\n",
        "0 1 1 up 1.0\n",
        "0 2 1 up 1.0\n",
        "9000 0 1 up 1.0\n\n3000 0 1 down 1.0\n",
        "0 0 1 up NaN\n",
        "0 0 1 up -1\n",
        "0.0 CONN 5 5 up\n",
        "1e300 CONN 0 1 up\n",
        "0 conn 3 1 UP\n\t12.5\tCONN\t1\t3\tDown\r\n",
        "0\u{2003}0\u{a0}1\u{3000}up\u{2009}1.5\n",
        "0 0 1 up 1.0\n\u{feff}5 0 1 down 1.0\n",
    ];
    let mut transcript = String::new();
    let mut note = |what: &str, input: &str, outcome: String| {
        transcript.push_str(&format!("{what} {input:?} => {outcome}\n"));
    };
    for input in conn {
        let got = import_bytes(CorpusFormat::Crawdad, input.as_bytes());
        note("conn", input, show(got.map(|c| c.trace)));
    }
    for input in reality {
        let got = import_bytes(CorpusFormat::RealityMining, input.as_bytes());
        note("reality", input, show(got.map(|c| c.trace)));
    }
    for input in sassy {
        let got = import_bytes(CorpusFormat::Sassy, input.as_bytes());
        note("sassy", input, show(got.map(|c| c.trace)));
    }
    for input in text {
        note("text", input, show(codec_text::from_text(input)));
    }
    note(
        "bytes",
        "\\xff",
        show(import_bytes(CorpusFormat::Crawdad, b"0 CONN 1 2 up\n\xff\n").map(|c| c.trace)),
    );
    assert_eq!(
        Digest::new().bytes(transcript.as_bytes()).hex(),
        "c0dce0c4e73769f7",
        "outcomes drifted from the pinned parent output:\n{transcript}"
    );
}
