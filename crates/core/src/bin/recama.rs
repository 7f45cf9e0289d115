//! The `recama` command-line tool: analyze, compile, and simulate regexes
//! with counting on the augmented in-memory accelerator model.
//!
//! ```text
//! recama analyze <pattern> [--method exact|approx|hybrid|hybrid-witness]
//! recama compile <pattern> [--threshold N | --unfold-all] [--out FILE]
//! recama run     <pattern> (--text STRING | --file FILE) [--threshold N | --unfold-all]
//! ```

use recama::analysis::{check, CheckConfig, Method, Verdict};
use recama::compiler::{compile, CompileOptions, DecidedBy, ModuleKind};
use recama::hw::{run as hw_run, AreaGranularity};
use recama::nca::UnfoldPolicy;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "analyze" => cmd_analyze(rest),
            "compile" => cmd_compile(rest),
            "run" => cmd_run(rest),
            "help" | "--help" | "-h" => {
                print_usage();
                ExitCode::SUCCESS
            }
            other => {
                eprintln!("unknown command `{other}`");
                print_usage();
                ExitCode::FAILURE
            }
        },
        None => {
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "recama — in-memory regular pattern matching with counters (PLDI'22 reproduction)

USAGE:
  recama analyze <pattern> [--method exact|approx|hybrid|hybrid-witness]
  recama compile <pattern> [--threshold N | --unfold-all] [--out FILE]
  recama run     <pattern> (--text STRING | --file FILE) [--threshold N | --unfold-all]"
    );
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_options(args: &[String]) -> CompileOptions {
    let mut options = CompileOptions::default();
    if args.iter().any(|a| a == "--unfold-all") {
        options.unfold = UnfoldPolicy::All;
    } else if let Some(k) = flag_value(args, "--threshold") {
        match k.parse::<u32>() {
            Ok(k) => options.unfold = UnfoldPolicy::UpTo(k),
            Err(_) => eprintln!("ignoring bad --threshold {k:?}"),
        }
    }
    options
}

fn cmd_analyze(args: &[String]) -> ExitCode {
    let Some(pattern) = args.first() else {
        eprintln!("analyze: missing pattern");
        return ExitCode::FAILURE;
    };
    let method = match flag_value(args, "--method").unwrap_or("hybrid") {
        "exact" => Method::Exact,
        "approx" => Method::Approximate,
        "hybrid" => Method::Hybrid,
        "hybrid-witness" => Method::HybridWitness,
        other => {
            eprintln!("unknown method {other:?}");
            return ExitCode::FAILURE;
        }
    };
    let parsed = match recama::syntax::parse(pattern) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("parse error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = check(&parsed.for_stream(), method, &CheckConfig::default());
    println!("pattern:    {pattern}");
    println!("stream re:  {}", parsed.for_stream());
    println!(
        "verdict:    {}",
        match result.ambiguous {
            Some(true) => "counter-AMBIGUOUS",
            Some(false) => "counter-unambiguous",
            None => "unknown (inconclusive / budget exhausted)",
        }
    );
    for occ in &result.occurrences {
        let bounds = match occ.max {
            Some(n) if n == occ.min => format!("{{{}}}", occ.min),
            Some(n) => format!("{{{},{}}}", occ.min, n),
            None => format!("{{{},}}", occ.min),
        };
        let verdict = match occ.verdict {
            Verdict::Unambiguous => "unambiguous",
            Verdict::Ambiguous => "AMBIGUOUS",
            Verdict::Unknown => "unknown",
        };
        println!("  occurrence {} {bounds}: {verdict}", occ.id);
    }
    if let Some(w) = &result.witness {
        println!("witness:    {:?}", String::from_utf8_lossy(w));
    }
    println!(
        "stats:      {} token pairs, {} edges, {:?}",
        result.stats.pairs_created, result.stats.edges_traversed, result.stats.duration
    );
    ExitCode::SUCCESS
}

fn cmd_compile(args: &[String]) -> ExitCode {
    let Some(pattern) = args.first() else {
        eprintln!("compile: missing pattern");
        return ExitCode::FAILURE;
    };
    let options = parse_options(args);
    let parsed = match recama::syntax::parse(pattern) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("parse error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = compile(&parsed.for_stream(), &options);
    let (states, counters, bitvectors) = out.network.counts_by_type();
    eprintln!(
        "compiled: {} STEs, {} counter modules, {} bit-vector modules ({} occurrences unfolded)",
        states, counters, bitvectors, out.report.unfolded_occurrences
    );
    let stats = out.report.analysis_stats;
    eprintln!(
        "analysis: {} relaxed + {} exact explorations over {} iterations, {} token pairs{}",
        out.report.relaxed_explorations,
        out.report.exact_explorations,
        out.report.iterations,
        stats.pairs_created,
        if stats.budget_exhausted {
            " (budget exhausted)"
        } else {
            ""
        }
    );
    for (k, (m, by)) in out.modules.iter().zip(&out.report.decided_by).enumerate() {
        let info = out.nca.counters()[k];
        eprintln!(
            "  counter {k}: {} for bounds {{{},{}}}, decided by {}",
            match m {
                ModuleKind::Counter => "counter",
                ModuleKind::BitVector => "bit-vector",
            },
            info.min,
            info.max.map_or("∞".into(), |n| n.to_string()),
            match by {
                DecidedBy::RelaxedProof => "relaxed proof",
                DecidedBy::Exact => "exact exploration",
                DecidedBy::BudgetCut => "budget cut",
            }
        );
    }
    let json = out.network.to_json();
    match flag_value(args, "--out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    ExitCode::SUCCESS
}

fn cmd_run(args: &[String]) -> ExitCode {
    let Some(pattern) = args.first() else {
        eprintln!("run: missing pattern");
        return ExitCode::FAILURE;
    };
    let input: Vec<u8> = if let Some(text) = flag_value(args, "--text") {
        text.as_bytes().to_vec()
    } else if let Some(path) = flag_value(args, "--file") {
        match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        eprintln!("run: need --text or --file");
        return ExitCode::FAILURE;
    };
    let options = parse_options(args);
    let parsed = match recama::syntax::parse(pattern) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("parse error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = compile(&parsed.for_stream(), &options);
    let report = hw_run(&out.network, &input, AreaGranularity::WholeModule);
    println!("pattern:      {pattern}");
    println!("input bytes:  {}", input.len());
    println!("matches end:  {:?}", report.match_ends);
    println!(
        "placement:    {} PEs, {} CAM columns, {} counters, {} bit-vector segments",
        report.placement.pe_count,
        report.placement.total_columns,
        report.placement.counter_count,
        report.placement.bitvector_segments
    );
    println!("energy:       {:.6} nJ/byte", report.energy.nj_per_byte());
    println!(
        "area:         {:.6} mm² (waste {:.6} mm²)",
        report.area.total_mm2(),
        report.area.waste_um2 / 1e6
    );
    ExitCode::SUCCESS
}
