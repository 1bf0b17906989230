//! The command line, declared once.
//!
//! `command_table!` lists every command (name, operand if it takes one,
//! summary) and `flag_table!` every flag: the [`Args`] field it fills, its
//! name, its value kind (a numeric kind cannot be written without its
//! range), its default as the text a user would type, the commands that
//! read it, and one help line. [`parse`] with every range check and
//! [`help`] (`wavesim help`, which a test holds equal to the README's
//! reference block) walk those rows: a new flag is one row and nothing else.

use std::fmt::Write as _;
use std::ops::RangeInclusive;

use wavesim_bench::{experiments, Scale};
use wavesim_core::ProtocolKind;
use wavesim_model::Mutation;
use wavesim_topology::Topology;

/// What a flag's value may be, the closed set every row picks from: no
/// value at all; any text (named in the help by a metavariable); one word
/// of a list; an integer or a float in `lo..=hi` (so never NaN); or a
/// `SRC:DEST` pair of different node ids, one more per occurrence.
enum Kind {
    Switch,
    Text(&'static str),
    OneOf(&'static [&'static str]),
    Int(u64, u64),
    Float(f64, f64),
    Pairs,
}

/// What `convert-trace --to` writes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ConvertTo {
    /// The JSONL view: one record per line.
    #[default]
    Jsonl,
    /// WSTRACE1 frames.
    Bin,
    /// A Perfetto document of the last `--flight-recorder` records.
    Perfetto,
}

/// Stores a value's text in its flag's field; `None` if it is not of the
/// flag's kind.
type Set = fn(&mut Args, &str) -> Option<()>;

/// One row of the flag table.
struct Flag {
    name: &'static str,
    /// The [`Args`] field the flag fills.
    field: &'static str,
    kind: Kind,
    set: Set,
    /// The field when the flag is absent, as a user would type it; `None`
    /// leaves it off, absent or empty.
    default: Option<&'static str>,
    /// The commands that read the flag; any other command refuses it.
    cmds: &'static [Cmd],
    help: &'static str,
}

/// One row of the command table; `operand` names the one the command needs.
struct Command {
    cmd: Cmd,
    name: &'static str,
    operand: Option<&'static str>,
    about: &'static str,
}

/// A command line `wavesim` cannot act on: `main` prints it after
/// `error: `, then [`USAGE`], and exits 2.
#[derive(Debug)]
pub struct UsageError(pub String);

fn store<T>(slot: &mut T, value: Option<T>) -> Option<()> {
    value.map(|value| *slot = value)
}

/// An integer in `range` that fits the field (an `Option<u64>` takes any).
fn int<T: TryFrom<u64>>(text: &str, range: RangeInclusive<u64>) -> Option<T> {
    let n = text.parse().ok().filter(|n| range.contains(n))?;
    T::try_from(n).ok()
}

fn float(text: &str, range: RangeInclusive<f64>) -> Option<f64> {
    text.parse().ok().filter(|x| range.contains(x))
}

/// A message must travel: `SRC` and `DEST` differ.
fn pair(text: &str) -> Option<(u32, u32)> {
    let (src, dest) = text.split_once(':')?;
    Some((src.parse().ok()?, dest.parse().ok()?)).filter(|(src, dest)| src != dest)
}

/// A row's kind as the table writes it: the type of its field, then for
/// field `$f` its [`Kind`] and how a value's text is checked and stored.
macro_rules! kind {
    (ty switch) => { bool };
    (ty text($meta:literal)) => { Option<String> };
    (ty one_of($ty:ty: $($word:literal => $val:expr),+)) => { $ty };
    (ty int($ty:ty, $range:expr)) => { $ty };
    (ty float($range:expr)) => { f64 };
    (ty pairs) => { Vec<(u32, u32)> };
    ($f:ident switch) => { (Kind::Switch, |args, _| store(&mut args.$f, Some(true))) };
    ($f:ident text($meta:literal)) => {
        (Kind::Text($meta), |args, v| store(&mut args.$f, Some(Some(v.to_string()))))
    };
    ($f:ident one_of($ty:ty: $($word:literal => $val:expr),+)) => {
        (Kind::OneOf(&[$($word),+]), |args, v| {
            let val = match v {
                $($word => $val,)+
                _ => return None,
            };
            store(&mut args.$f, Some(val))
        })
    };
    ($f:ident int($ty:ty, $range:expr)) => {
        (Kind::Int(*$range.start(), *$range.end()), |args, v| store(&mut args.$f, int(v, $range)))
    };
    ($f:ident float($range:expr)) => {
        (Kind::Float(*$range.start(), *$range.end()), |args, v| {
            store(&mut args.$f, float(v, $range))
        })
    };
    ($f:ident pairs) => { (Kind::Pairs, |args, v| pair(v).map(|p| args.$f.push(p))) };
}

/// Expands the command rows into [`Cmd`] and `COMMANDS`.
macro_rules! command_table {
    ($( $variant:ident = $name:literal, $operand:expr, $about:literal; )+) => {
        /// A command, as `main` dispatches on it.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Cmd {
            $( #[doc = $about] $variant, )+
        }

        static COMMANDS: &[Command] = &[
            $( Command { cmd: Cmd::$variant, name: $name, operand: $operand, about: $about }, )+
        ];
    };
}

/// Expands the flag rows into [`Args`] and `FLAGS`.
macro_rules! flag_table {
    ($(
        $field:ident = $name:literal, $kind:ident $(($($of:tt)*))?, $default:expr, $cmds:expr,
        $help:literal;
    )+) => {
        /// The parsed command line: the command and one field per flag row.
        pub struct Args {
            pub cmd: Cmd,
            /// The command as typed: `e7` for [`Cmd::Exp`], and for
            /// [`Cmd::Help`] the command whose `--help` was asked for.
            pub word: String,
            /// The operand of a command that takes one.
            pub path: String,
            /// The fields the command line gave: what a default cannot tell.
            pub given: Vec<&'static str>,
            $( #[doc = $help] pub $field: kind!(ty $kind $(($($of)*))?), )+
        }

        impl Args {
            /// `cmd` with every flag at its default.
            fn defaults(cmd: Cmd, word: &str) -> Self {
                let mut args = Self {
                    cmd,
                    word: word.to_string(),
                    path: String::new(),
                    given: Vec::new(),
                    $( $field: Default::default(), )+
                };
                for flag in FLAGS {
                    // In range: `every_default_is_a_value_of_its_kind`.
                    let _ = flag.default.and_then(|text| (flag.set)(&mut args, text));
                }
                args
            }
        }

        static FLAGS: &[Flag] = &[$({
            let (kind, set): (Kind, Set) = kind!($field $kind $(($($of)*))?);
            let field = stringify!($field);
            Flag { name: $name, field, kind, set, default: $default, cmds: $cmds, help: $help }
        },)+];
    };
}

command_table! {
    All = "all", None, "run every experiment";
    Exp = "e1..e15", None, "run one experiment";
    Run = "run", None, "one simulation: open-loop traffic, a trace replay or service clients";
    GenTrace = "gen-trace", None, "write one of E15's collective dependency traces";
    Analyze = "analyze", None, "latency, flow, lane and fault analytics of a captured stream";
    ConvertTrace = "convert-trace", Some("FILE"), "convert a capture to JSONL, WSTRACE1 or Perfetto";
    ValidateTrace = "validate-trace", Some("FILE"), "schema-check a JSONL, WSTRACE1 or Perfetto file";
    Check = "check", None, "certify the routing functions deadlock-free, or explore a --model";
    Fuzz = "fuzz", None, "random schedules and fault churn against a protocol model";
    Info = "info", None, "print the default configuration";
    Help = "help", None, "print this reference; `wavesim <command> --help` prints one command's";
}

use Cmd::{All, Analyze, Check, ConvertTrace, Exp, Fuzz, GenTrace, Run};
const EXPERIMENTS: &[Cmd] = &[All, Exp];
/// The commands that drive runs, and so can observe them.
const RUNS: &[Cmd] = &[All, Exp, Run];
const SQUARE: &[Cmd] = &[Run, GenTrace, Check, Fuzz];
const MODEL: &[Cmd] = &[Check, Fuzz];

/// No bound (a field narrower than `u64` still refuses what it cannot hold).
const ANY: u64 = u64::MAX;
/// The widest square network `Topology::build` accepts: a node has four
/// link slots, and the neighbour table indexes slots with a `u32`.
const MAX_SIDE: u64 = (Topology::MAX_LINK_SLOTS / 4).isqrt();
/// `RunSpec::standard` puts the drain deadline 21 × (warm-up + `--cycles`)
/// + 200,000 cycles out, and the cycle counter is a `u64`.
const MAX_CYCLES: u64 = u64::MAX / 32;
/// A started client holds ≈ 220 B of pending request and queued message
/// (868 MB at 4M clients, measured): this many stay within 1 GiB.
const MAX_CLIENTS: u64 = 1 << 22;
/// The flight recorder allocates its ring up front: 1 GiB of records.
const MAX_RING: u64 = (1 << 30) / size_of::<wavesim_trace::TraceRecord>() as u64;

flag_table! {
    scale = "--scale", one_of(Scale: "small" => Scale::small(), "paper" => Scale::paper()),
        Some("paper"), EXPERIMENTS, "4x4 networks and short sweeps, or the paper's 8x8";
    json = "--json", switch, None, EXPERIMENTS, "print each table as JSON";
    jobs = "--jobs", int(usize, 0..=ANY), Some("1"), EXPERIMENTS,
        "worker threads for sweep points; the output does not depend on it";
    protocol = "--protocol", one_of(ProtocolKind: "clrp" => ProtocolKind::Clrp,
        "carp" => ProtocolKind::Carp, "wormhole" => ProtocolKind::WormholeOnly), Some("clrp"), &[Run],
        "who manages circuits: the network, the program, or nobody (no wave plane)";
    torus = "--topology", one_of(bool: "mesh" => false, "torus" => true), Some("mesh"), SQUARE,
        "shape of the square 2-D network";
    side = "--side", int(u16, 2..=MAX_SIDE), Some("8"), SQUARE,
        "nodes per dimension, as many as the topology's u32 link table indexes; a torus needs \
        3, and --model defaults to the smallest fabric instead (mesh 2, torus 3)";
    load = "--load", float(f64::MIN_POSITIVE..=f64::MAX), Some("0.2"), &[Run],
        "offered load in flits per node per cycle";
    len = "--len", int(u32, 1..=u32::MAX as u64), Some("64"), &[Run, GenTrace],
        "message length in flits";
    locality = "--locality", float(0.0..=1.0), Some("0.7"), &[Run],
        "probability that a message goes to one of its source's three partner nodes";
    cycles = "--cycles", int(u64, 0..=MAX_CYCLES), Some("20000"), &[Run],
        "measured cycles, after a warm-up of a fifth as many; the drain deadline, 25x this, \
        has to fit the u64 cycle counter";
    seed = "--seed", int(u64, 0..=ANY), Some("1"), SQUARE, "seed of every random stream";
    k = "--k", int(u8, 1..=u8::MAX as u64), Some("2"), &[Run, Check, Fuzz],
        "wave switches per router (Theorems 1-4 need at least one)";
    alpha = "--alpha", int(u32, 1..=u32::MAX as u64), Some("4"), &[Run], "wave clock multiplier";
    cache = "--cache", int(usize, 1..=ANY), Some("16"), &[Run], "circuit cache entries per node";
    misroutes = "--misroutes", int(u8, 0..=u8::MAX as u64), Some("2"), &[Run, Check, Fuzz],
        "the MB-m misroute budget of a probe (finite, so probes cannot livelock); --model explores \
        MB-0 unless given";
    replay_trace = "--replay-trace", text("FILE"), None, &[Run],
        "replay a dependency trace instead: a message is released once its deps are delivered";
    service_clients = "--service-clients", int(Option<u64>, 1..=MAX_CLIENTS), None, &[Run],
        "closed-loop request/think/re-request clients instead; each holds 220 B once started, \
        so the bound is 1 GiB";
    fault_schedule = "--fault-schedule", text("FILE"), None, &[Run],
        "timed lane fail and repair events (JSON); a fail at cycle 0 is a static fault";
    collective = "--collective", one_of(Option<&'static str>: "all-to-all" => Some("all-to-all"),
        "reduce" => Some("reduce"), "broadcast" => Some("broadcast"),
        "transpose-sweep" => Some("transpose-sweep")), None, &[GenTrace],
        "the collective to emit (required)";
    out = "--out", text("FILE"), None, &[GenTrace, ConvertTrace],
        "the file to write (required); gen-trace writes JSONL to a .jsonl name, else one document";
    to = "--to", one_of(ConvertTo: "jsonl" => ConvertTo::Jsonl, "bin" => ConvertTo::Bin,
        "perfetto" => ConvertTo::Perfetto), Some("jsonl"), &[ConvertTrace],
        "output format: bin is WSTRACE1, perfetto the last --flight-recorder records as \
        Perfetto JSON";
    flight_recorder = "--flight-recorder", int(usize, 1..=MAX_RING), Some("65536"),
        &[ConvertTrace],
        "records the Perfetto view keeps, the capture's last, in a ring allocated up front: \
        1 GiB at most";
    trace_bin = "--trace-bin", text("FILE"), None, RUNS,
        "stream every record of the last run as WSTRACE1 frames, in bounded memory; \
        convert-trace writes its JSONL and Perfetto views";
    trace_sample = "--trace-sample", int(u64, 1..=ANY), Some("1"), RUNS,
        "keep 1 in N of --trace-bin's bulk record kinds; analyze reads N back from the capture's \
        sequence gaps and rescales their counts by it";
    metrics_out = "--metrics-out", text("FILE"), None, &[Run],
        "write a Prometheus-style metrics page of the run";
    timeseries_out = "--timeseries-out", text("FILE"), None, &[Run],
        "write the run's windowed CSV, one row per --window cycles: what analyze --timeseries \
        writes from its capture";
    window = "--window", int(u64, 1..=ANY), Some("1000"), &[Run, Analyze],
        "cycles per time-series window";
    progress = "--progress", int(Option<u64>, 1..=ANY), None, RUNS,
        "print the live status line to stderr every N cycles, checked every 64";
    top = "--top", int(usize, 0..=ANY), Some("10"), &[Run, Analyze],
        "rows in the hottest-flow and hottest-lane tables";
    serve_metrics = "--serve-metrics", text("ADDR"), None, RUNS,
        "serve live vitals over HTTP: GET /metrics (Prometheus) and /status (JSON)";
    live_analyze = "--live-analyze", switch, None, &[Run],
        "fold the records through analyze during the run; print its report after the verdict";
    watch_stall = "--watch-stall", int(Option<u64>, 1..=ANY), None, RUNS,
        "watchdog: trip when no message is delivered for N cycles";
    watch_retries = "--watch-retries", int(Option<u64>, 0..=ANY), None, RUNS,
        "watchdog: trip on more than N establishment retries in 4096 cycles";
    watch_deadlock = "--watch-deadlock", switch, None, RUNS,
        "watchdog: search the wait-for graph once the fabric has stopped for 2048 cycles";
    watch_abort = "--watch-abort", switch, None, RUNS,
        "a watchdog trip ends the run and fails the process";
    watch_postmortem = "--watch-postmortem", text("FILE"), None, RUNS,
        "a watchdog trip, or a run ending stalled, writes the flight recorder's post-mortem here";
    trace_in = "--trace", text("FILE"), None, &[Analyze],
        "the capture to analyze (required): JSONL or WSTRACE1, told apart by content";
    report_out = "--report", text("FILE"), None, &[Analyze],
        "write the report here instead of stdout";
    json_out = "--json", text("FILE"), None, &[Analyze], "write the whole analysis as JSON";
    timeseries_csv = "--timeseries", text("FILE"), None, &[Analyze],
        "write the windowed series as CSV";
    model = "--model", one_of(Option<(ProtocolKind, bool)>:
        "clrp" => Some((ProtocolKind::Clrp, true)), "carp" => Some((ProtocolKind::Carp, true)),
        "probe" => Some((ProtocolKind::Clrp, false))), None,
        MODEL, "the protocol to explore (fuzz needs it); probe is CLRP without Force";
    msgs = "--msgs", int(usize, 0..=ANY), Some("3"), MODEL,
        "messages drawn uniformly when no --msg is given (the model refuses too many to explore)";
    msg_list = "--msg", pairs, None, MODEL,
        "one message from node SRC to node DEST; repeat for more";
    fault = "--fault", switch, None, MODEL, "fail a lane on the first message's path";
    repair = "--repair", switch, None, MODEL, "and let the failed lane come back";
    mutate = "--mutate", one_of(Option<Mutation>: "none" => Some(Mutation::None),
        "drop-release" => Some(Mutation::DropRelease), "skip-backoff" => Some(Mutation::SkipBackoff),
        "wait-establishing" => Some(Mutation::WaitEstablishing)), None, MODEL,
        "plant a protocol bug the checker must find";
    counterexample = "--counterexample", text("FILE"), None, MODEL,
        "replay a violation through the real network; write its trace as WSTRACE1";
    max_states = "--max-states", int(u64, 1..=ANY), Some("5000000"), &[Check],
        "state budget of the exhaustive search; exhausting it fails the check";
    runs = "--runs", int(u32, 0..=u32::MAX as u64), Some("64"), &[Fuzz], "random schedules to try";
    steps = "--steps", int(u32, 0..=u32::MAX as u64), Some("4000"), &[Fuzz], "actions per schedule";
}

/// The name of the flag that fills the [`Args`] field `field`, for
/// messages that name a flag.
pub fn name(field: &str) -> &'static str {
    FLAGS
        .iter()
        .find(|f| f.field == field)
        .map_or("", |f| f.name)
}

/// Not a row: every command takes it, and it stands for `help` as one.
const HELP: &str = "--help";

/// The command `word` names: any experiment id names [`Cmd::Exp`].
fn command(word: &str) -> Option<&'static Command> {
    let exp = experiments::all_ids().contains(&word);
    COMMANDS
        .iter()
        .find(|c| if c.cmd == Exp { exp } else { c.name == word })
}

/// Parses the arguments after the program name. Pure: nothing is printed
/// and nothing exits.
///
/// # Errors
/// An unknown command, an argument the command does not take, a missing
/// operand, and a missing or out-of-range value.
pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, UsageError> {
    let fail = |what: String| Err(UsageError(what));
    let mut argv = argv.into_iter();
    let Some(word) = argv
        .next()
        .map(|w| if w == HELP { "help".into() } else { w })
    else {
        return fail("missing command".into());
    };
    let Some(command) = command(&word) else {
        return fail(format!("unknown command `{word}`"));
    };
    let mut args = Args::defaults(command.cmd, &word);
    while let Some(arg) = argv.next() {
        if arg == HELP {
            return Ok(Args::defaults(Cmd::Help, &word));
        }
        let reads = |f: &&Flag| f.name == arg && f.cmds.contains(&command.cmd);
        let Some(flag) = FLAGS.iter().find(reads) else {
            if arg.starts_with('-') || command.operand.is_none() || !args.path.is_empty() {
                return fail(format!("unknown argument `{arg}` for `{word}`"));
            }
            args.path = arg;
            continue;
        };
        let value = match flag.kind {
            Kind::Switch => String::new(),
            _ => match argv.next() {
                Some(value) => value,
                None => return fail(format!("missing value for `{arg}`")),
            },
        };
        if (flag.set)(&mut args, &value).is_none() {
            return fail(format!("invalid value `{value}` for `{arg}`"));
        }
        args.given.push(flag.field);
    }
    // Without `--model`, `check` is the CDG certificate: it reads `--side` alone.
    let certificate = command.cmd == Check && args.model.is_none();
    if let Some(field) = args.given.iter().find(|f| certificate && **f != "side") {
        return fail(format!("`{}` needs `--model` for `check`", name(field)));
    }
    match command.operand {
        Some(operand) if args.path.is_empty() => fail(format!("{word} needs a {operand} operand")),
        _ => Ok(args),
    }
}

/// What follows an `error:` line on stderr.
pub const USAGE: &str = "usage: wavesim <command> [FILE] [flags]\n       \
    `wavesim help` lists the commands and every flag, `wavesim <command> --help` one command's";

impl Flag {
    /// The flag with its value and default and the commands that read it;
    /// then its help line.
    fn entry(&self) -> String {
        let value = match self.kind {
            Kind::Switch => String::new(),
            Kind::Text(meta) => format!(" {meta}"),
            Kind::OneOf(words) => format!(" {}", words.join("|")),
            Kind::Int(0, ANY) => " N".into(),
            Kind::Int(lo, ANY) => format!(" N >= {lo}"),
            Kind::Int(lo, hi) => format!(" N in {lo}..={hi}"),
            Kind::Float(lo, _) if lo == f64::MIN_POSITIVE => " F > 0".into(),
            Kind::Float(lo, hi) => format!(" F in {lo}..={hi}"),
            Kind::Pairs => " SRC:DEST".into(),
        };
        let default = self
            .default
            .map_or(String::new(), |d| format!(" (default {d})"));
        let readers = COMMANDS.iter().filter(|c| self.cmds.contains(&c.cmd));
        let readers: Vec<&str> = readers.map(|c| c.name).collect();
        let (name, help) = (self.name, self.help);
        format!(
            "  {name}{value}{default}  [{}]\n      {help}\n",
            readers.join(", ")
        )
    }
}

/// `wavesim help`: every command and every flag; or, when `word` names a
/// command other than `help`, that command and the flags it reads.
pub fn help(word: &str) -> String {
    let topic = command(word).map(|c| c.cmd).filter(|cmd| *cmd != Cmd::Help);
    let about = |cmd| topic.is_none_or(|topic| topic == cmd);
    let mut out = String::from("usage: wavesim <command> [FILE] [flags]\n\ncommands:\n");
    for c in COMMANDS.iter().filter(|c| about(c.cmd)) {
        let name = [c.name, c.operand.unwrap_or_default()].join(" ");
        let _ = writeln!(out, "  {name:<21}{}", c.about);
    }
    let read = FLAGS
        .iter()
        .filter(|f| f.cmds.iter().any(|cmd| about(*cmd)));
    let flags: String = read.map(Flag::entry).collect();
    if !flags.is_empty() {
        out.push_str("\nflags, each with its default and the [commands] that read it:\n");
    }
    out + &flags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(text: &str) -> Result<Args, UsageError> {
        parse(text.split_whitespace().map(String::from))
    }

    fn refusal(text: &str) -> String {
        match line(text) {
            Ok(_) => panic!("`{text}` must be refused"),
            Err(UsageError(what)) => what,
        }
    }

    /// A repository file, `\`-continuations joined.
    fn doc(path: &str) -> String {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
        let text = std::fs::read_to_string(format!("{root}{path}")).expect(path);
        text.replace("\\\n", " ")
    }

    /// Every literal invocation in `text`: what follows `wavesim-cli -- `
    /// or `target/release/wavesim `, cut at the first shell operator or
    /// comment. A line that uses a shell variable is skipped.
    fn invocations(text: &str) -> Vec<&str> {
        let mut found = Vec::new();
        for line in text.lines().filter(|line| !line.contains('$')) {
            for prefix in ["wavesim-cli -- ", "target/release/wavesim "] {
                for (at, _) in line.match_indices(prefix) {
                    let rest = &line[at + prefix.len()..];
                    let end = rest.find(|c| ";|<>&)`#".contains(c)).unwrap_or(rest.len());
                    found.push(rest[..end].trim());
                }
            }
        }
        found
    }

    #[test]
    fn the_documented_command_lines_are_the_parsers_traffic() {
        let mut parsed = 0;
        for path in [
            "README.md",
            "EXPERIMENTS.md",
            ".claude/skills/verify/SKILL.md",
            ".github/workflows/ci.yml",
        ] {
            let text = doc(path);
            for args in invocations(&text) {
                if let Err(UsageError(what)) = line(args) {
                    panic!("{path}: `wavesim {args}`: {what}");
                }
                parsed += 1;
            }
        }
        assert!(parsed >= 80, "only {parsed} invocations found");

        // CI's refusal step lists `<exit code> <arguments>` rows: 2 is a
        // usage error, which is `parse`'s to raise, and 1 is not.
        let ci = doc(".github/workflows/ci.yml");
        let step = ci
            .split("- name: ")
            .find(|step| step.starts_with("Out-of-range flags are refused"))
            .expect("the step exists");
        let rows: Vec<(&str, &str)> = step
            .lines()
            .filter_map(|row| row.trim().split_once(' '))
            .filter(|(code, _)| ["1", "2"].contains(code))
            .collect();
        assert!(rows.len() >= 5, "{rows:?}");
        for (code, args) in rows {
            assert_eq!(line(args).is_err(), code == "2", "`wavesim {args}`");
        }
    }

    #[test]
    fn every_default_is_a_value_of_its_kind() {
        for flag in FLAGS {
            let mut args = Args::defaults(Cmd::Info, "info");
            if let Some(text) = flag.default {
                let stored = (flag.set)(&mut args, text);
                assert!(stored.is_some(), "{}: default `{text}`", flag.name);
            }
            assert!(!flag.cmds.is_empty(), "{}: no command reads it", flag.name);
        }
        // The largest run's deadline fits the cycle counter (debug builds
        // panic on overflow, here and in `RunSpec::standard`).
        let spec = wavesim_bench::RunSpec::standard(MAX_CYCLES / 5, MAX_CYCLES);
        assert!((spec.warmup + spec.measure)
            .checked_add(spec.drain_limit)
            .is_some());
        // An absent flag is its default, and gives nothing.
        let args = line("run").unwrap();
        assert_eq!(
            (args.side, args.k, args.load, args.cycles),
            (8, 2, 0.2, 20_000)
        );
        assert_eq!(args.scale, Scale::paper());
        assert!(args.given.is_empty() && args.progress.is_none() && !args.torus);
    }

    #[test]
    fn every_command_of_the_table_reaches_mains_match() {
        // `main` matches on `Cmd` without a wildcard, so a command is
        // dispatched once its name parses to its own variant.
        for c in COMMANDS.iter().filter(|c| c.cmd != Exp) {
            let text = format!("{} {}", c.name, c.operand.unwrap_or_default());
            assert_eq!(line(&text).unwrap().cmd, c.cmd, "{text}");
        }
        for id in experiments::all_ids() {
            let args = line(id).unwrap();
            assert_eq!((args.cmd, args.word.as_str()), (Exp, id));
        }
        // The experiments' row is named after the ids it stands for.
        let ids = experiments::all_ids();
        let span = format!("{}..{}", ids[0], ids[ids.len() - 1]);
        assert!(COMMANDS.iter().any(|c| c.cmd == Exp && c.name == span));
        assert!(line(&span).is_err() && line("e16").is_err());
    }

    #[test]
    fn each_flag_is_one_row_and_no_flag_was_added() {
        let mut names: Vec<&str> = FLAGS.iter().map(|f| f.name).collect();
        names.sort_unstable();
        let rows = names.len();
        names.dedup();
        // `--json` is a switch for the experiments and a FILE for `analyze`.
        assert_eq!((rows, names.len()), (50, 49));
        for (i, flag) in FLAGS.iter().enumerate() {
            let clash = FLAGS[..i].iter().find(|other| {
                other.name == flag.name && other.cmds.iter().any(|c| flag.cmds.contains(c))
            });
            assert!(clash.is_none(), "{}: two rows for one command", flag.name);
            assert!(flag.name.starts_with("--") && flag.name != HELP);
        }
    }

    #[test]
    fn a_command_takes_its_own_flags_and_operand_only() {
        let cases = [
            ("", "missing command"),
            ("bogus", "unknown command `bogus`"),
            ("info --load 0.5", "unknown argument `--load` for `info`"),
            ("run --side 4 stray", "unknown argument `stray` for `run`"),
            (
                "e3 --scale small --json out.json",
                "unknown argument `out.json` for `e3`",
            ),
            (
                "e3 --metrics-out m.txt",
                "unknown argument `--metrics-out` for `e3`",
            ),
            (
                "all --live-analyze",
                "unknown argument `--live-analyze` for `all`",
            ),
            (
                "analyze --trace x --watch-stall 5",
                "unknown argument `--watch-stall` for `analyze`",
            ),
            (
                "run --no-such-flag 2",
                "unknown argument `--no-such-flag` for `run`",
            ),
            ("validate-trace", "validate-trace needs a FILE operand"),
            (
                "convert-trace --out x",
                "convert-trace needs a FILE operand",
            ),
            (
                "validate-trace a b",
                "unknown argument `b` for `validate-trace`",
            ),
            (
                "validate-trace -",
                "unknown argument `-` for `validate-trace`",
            ),
            ("run --side", "missing value for `--side`"),
            ("run --side 1", "invalid value `1` for `--side`"),
            ("run --side 32768", "invalid value `32768` for `--side`"),
            ("run --side 65536", "invalid value `65536` for `--side`"),
            (
                "convert-trace x --flight-recorder 22369622",
                "invalid value `22369622` for `--flight-recorder`",
            ),
            (
                "run --flight-recorder 4096",
                "unknown argument `--flight-recorder` for `run`",
            ),
            (
                "analyze --trace x --trace-sample 8",
                "unknown argument `--trace-sample` for `analyze`",
            ),
            (
                "run --service-clients 4194305",
                "invalid value `4194305` for `--service-clients`",
            ),
            (
                "run --cycles 576460752303423488",
                "invalid value `576460752303423488` for `--cycles`",
            ),
            ("run --locality nan", "invalid value `nan` for `--locality`"),
            ("run --locality 1.5", "invalid value `1.5` for `--locality`"),
            ("run --load 0", "invalid value `0` for `--load`"),
            ("run --load inf", "invalid value `inf` for `--load`"),
            ("run --k 256", "invalid value `256` for `--k`"),
            (
                "check --model clrp --msg 1:1",
                "invalid value `1:1` for `--msg`",
            ),
            ("check --model pcs", "invalid value `pcs` for `--model`"),
            (
                "check --side 4 --misroutes 3",
                "`--misroutes` needs `--model` for `check`",
            ),
            ("check --k 3", "`--k` needs `--model` for `check`"),
            (
                "gen-trace --collective scan",
                "invalid value `scan` for `--collective`",
            ),
        ];
        for (text, complaint) in cases {
            assert_eq!(refusal(text), complaint, "`wavesim {text}`");
        }
        let edge = line("run --side 32767 --locality 0").unwrap();
        assert_eq!((edge.side, edge.locality), (32767, 0.0));
        let edge = line("convert-trace x --flight-recorder 22369621").unwrap();
        assert_eq!(edge.flight_recorder, 22_369_621);
    }

    #[test]
    fn values_land_in_their_fields() {
        let args = line(
            "run --protocol carp --topology torus --side 6 --side 5 --load 0.5 \
             --service-clients 7 --watch-retries 0 --watch-postmortem pm.json --progress 500",
        )
        .unwrap();
        assert_eq!(
            (args.cmd, args.protocol, args.torus),
            (Run, ProtocolKind::Carp, true)
        );
        assert_eq!((args.side, args.load), (5, 0.5), "the last occurrence wins");
        assert_eq!(
            (args.service_clients, args.watch_retries),
            (Some(7), Some(0))
        );
        assert_eq!(args.watch_postmortem.as_deref(), Some("pm.json"));
        assert!(args.progress == Some(500) && !args.live_analyze && args.given.contains(&"side"));

        let args = line("check --model probe --msg 0:3 --msg 3:0 --mutate skip-backoff").unwrap();
        assert_eq!(args.model, Some((ProtocolKind::Clrp, false)));
        assert_eq!(args.msg_list, [(0, 3), (3, 0)]);
        assert_eq!(args.mutate, Some(Mutation::SkipBackoff));
        assert!(!args.given.contains(&"side"), "--model picks the side");

        // `--json` is a switch for the experiments and a FILE for `analyze`.
        let args = line("e4 --scale small --json").unwrap();
        assert!(args.json && args.json_out.is_none() && args.scale == Scale::small());
        let args = line("analyze --trace t.jsonl --json a.json").unwrap();
        assert!(!args.json && args.json_out.as_deref() == Some("a.json"));
        assert_eq!(
            refusal("analyze --trace t.jsonl --json"),
            "missing value for `--json`"
        );

        let args = line("convert-trace in.wstrace --out o.bin --to bin").unwrap();
        assert_eq!(
            (args.path.as_str(), args.to),
            ("in.wstrace", ConvertTo::Bin)
        );
        let args = line("convert-trace in.wstrace --out o.json --to perfetto --flight-recorder 9");
        let args = args.unwrap();
        assert_eq!((args.to, args.flight_recorder), (ConvertTo::Perfetto, 9));
        let args = line("convert-trace in.wstrace --out o.json --to perfetto").unwrap();
        assert_eq!(args.flight_recorder, 1 << 16);
        // `main` names a flag in a message by the field it fills.
        for (field, flag) in [
            ("out", "--out"),
            ("trace_bin", "--trace-bin"),
            ("metrics_out", "--metrics-out"),
            ("timeseries_out", "--timeseries-out"),
            ("watch_postmortem", "--watch-postmortem"),
        ] {
            assert_eq!(name(field), flag);
        }
        let args = line("gen-trace --collective reduce --out r.json").unwrap();
        assert_eq!(args.collective, Some("reduce"));
    }

    #[test]
    fn help_is_a_command_and_a_flag_of_every_command() {
        for text in ["help", HELP] {
            let args = line(text).unwrap();
            assert_eq!((args.cmd, args.word.as_str()), (Cmd::Help, "help"));
        }
        let all = help("help");
        for c in COMMANDS {
            assert!(all.contains(&format!("\n  {}", c.name)), "{}", c.name);
        }
        for flag in FLAGS {
            assert!(all.contains(&format!("\n  {}", flag.name)), "{}", flag.name);
        }
        // Asked of a command, it wins over whatever else the line holds...
        let args = line("run --side 4 --help --bogus").unwrap();
        assert_eq!((args.cmd, args.word.as_str()), (Cmd::Help, "run"));
        // ...and lists what that command reads, nothing else.
        let run = help("run");
        assert!(
            run.contains("\n  --load F > 0 (default 0.2)  [run]\n"),
            "{run}"
        );
        assert!(
            run.contains("\n  --side N in 2..=32767 (default 8)  [run, gen-trace, check, fuzz]\n")
        );
        assert!(!run.contains(" small|paper") && !run.contains("gen-trace "));
        assert!(help("e7").contains("--scale small|paper (default paper)  [all, e1..e15]"));
        assert!(!help("info").contains("\nflags"));
        assert!(USAGE.starts_with("usage: ") && !USAGE.ends_with('\n'));
    }

    #[test]
    fn readme_reference_is_wavesim_help() {
        let readme = doc("README.md");
        let (_, rest) = readme
            .split_once("<!-- cli-reference:begin -->\n")
            .expect("begin marker");
        let (block, _) = rest
            .split_once("<!-- cli-reference:end -->")
            .expect("end marker");
        assert!(
            block == help("help"),
            "regenerate: paste `wavesim help` between the markers"
        );
    }
}
