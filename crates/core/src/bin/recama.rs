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
use recama::nca::{CompilePlan, CounterId, MultiNca, StateId, UnfoldPolicy};
use recama::syntax::Parsed;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        print_usage();
        return ExitCode::FAILURE;
    };
    let done = match cmd.as_str() {
        "analyze" => cmd_analyze(rest),
        "compile" => cmd_compile(rest),
        "run" => cmd_run(rest),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => {
            eprintln!("unknown command `{other}`");
            print_usage();
            return ExitCode::FAILURE;
        }
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
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

/// The argument after flag `name`, `None` when the flag is absent; a
/// flag with nothing after it is an error.
fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        Some(i) => (args.get(i + 1))
            .map(|value| Some(value.as_str()))
            .ok_or_else(|| format!("{name} needs a value")),
        None => Ok(None),
    }
}

fn parse_options(args: &[String]) -> Result<CompileOptions, String> {
    let threshold = match flag_value(args, "--threshold")? {
        Some(k) => {
            Some((k.parse::<u32>()).map_err(|_| format!("bad --threshold {k:?}: not a number"))?)
        }
        None => None,
    };
    let mut options = CompileOptions::default();
    if args.iter().any(|a| a == "--unfold-all") {
        options.unfold = UnfoldPolicy::All;
    } else if let Some(k) = threshold {
        options.unfold = UnfoldPolicy::UpTo(k);
    }
    Ok(options)
}

fn parse(pattern: &str) -> Result<Parsed, String> {
    recama::syntax::parse(pattern).map_err(|e| format!("parse error: {e}"))
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let pattern = args.first().ok_or("analyze: missing pattern")?;
    let method = match flag_value(args, "--method")?.unwrap_or("hybrid") {
        "exact" => Method::Exact,
        "approx" => Method::Approximate,
        "hybrid" => Method::Hybrid,
        "hybrid-witness" => Method::HybridWitness,
        other => return Err(format!("unknown method {other:?}")),
    };
    let parsed = parse(pattern)?;
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
    Ok(())
}

fn cmd_compile(args: &[String]) -> Result<(), String> {
    let pattern = args.first().ok_or("compile: missing pattern")?;
    let options = parse_options(args)?;
    let out_path = flag_value(args, "--out")?;
    let parsed = parse(pattern)?;
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
    // The scan engines' counter bank, for this rule merged alone.
    let plan = CompilePlan::optimized(&out.nca, |q| out.analysis.state_unambiguous(q));
    let multi = MultiNca::merge(&[(&out.nca, plan)]);
    for (k, (m, by)) in out.modules.iter().zip(&out.report.decided_by).enumerate() {
        let info = out.nca.counters()[k];
        let mut cells: Vec<String> = (out.nca.states().iter().enumerate())
            .filter(|(_, state)| state.counters.contains(&CounterId(k as u32)))
            .filter_map(|(q, _)| multi.scan_cell(StateId(q as u32)))
            .collect();
        cells.dedup();
        eprintln!(
            "  counter {k}: {} for bounds {{{},{}}}, decided by {}; scans as {}",
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
            },
            cells.join(" and ")
        );
    }
    let json = out.network.to_json();
    match out_path {
        Some(path) => {
            std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let pattern = args.first().ok_or("run: missing pattern")?;
    let input: Vec<u8> = if let Some(text) = flag_value(args, "--text")? {
        text.as_bytes().to_vec()
    } else if let Some(path) = flag_value(args, "--file")? {
        std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?
    } else {
        return Err("run: need --text or --file".into());
    };
    let options = parse_options(args)?;
    let parsed = parse(pattern)?;
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
    Ok(())
}
