//! `benchmark report`: gather the rows the `gen`, `e2e` and `layers`
//! processes left in their work directories into `BENCH.json`, with the
//! machine facts a reader needs before comparing two such files.

use crate::args::{parse_seed, Args};
use crate::json::Json;
use crate::workdir::{read_json, read_text, write_file};
use crate::workloads::WORKLOADS;
use std::path::Path;
use std::process::Command;

/// First line of a command's stdout, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `model name` of the first CPU in the text of `/proc/cpuinfo`.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    let line = cpuinfo.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn machine_facts() -> Json {
    let read = |path: &str| read_text(Path::new(path)).unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        (
            "cpu_model",
            Json::str(parse_cpu_model(&read("/proc/cpuinfo")).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "kernel",
            Json::str(read("/proc/sys/kernel/osrelease").trim()),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "build_profile",
            Json::str("release, lto = true, codegen-units = 1"),
        ),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

pub fn run(args: &Args) -> Result<(), String> {
    let out = args.required("out")?;
    let seed = parse_seed(args.required("seed")?)?;
    let seconds: f64 = args.parsed("seconds")?;
    let build_s: f64 = args.parsed("build-s")?;
    let spec_path = args.required("spec")?;
    let spec = read_json(Path::new(spec_path))?;

    let mut workloads = Vec::new();
    let mut op_counts = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        let row = |file: &str| read_json(&Path::new(out).join("work").join(w.name).join(file));
        let (gen, e2e, layers) = (row("gen.json")?, row("e2e.json")?, row("layers.json")?);
        for row in [&e2e, &layers] {
            all_correct &= row.get("correct") == Some(&Json::Bool(true));
        }
        op_counts.push((
            w.name,
            Json::obj([
                (
                    "end_to_end",
                    e2e.get("attempted").cloned().unwrap_or(Json::Null),
                ),
                (
                    "per_layer",
                    layers.get("attempted").cloned().unwrap_or(Json::Null),
                ),
            ]),
        ));
        workloads.push((
            w.name,
            Json::obj([
                ("why", Json::str(w.why)),
                ("gen", gen),
                ("end_to_end", e2e),
                ("per_layer", layers),
            ]),
        ));
    }
    let bench = Json::obj([
        ("schema", Json::Num(1.0)),
        ("correct", Json::Bool(all_correct)),
        ("machine", machine_facts()),
        (
            "run",
            Json::obj([
                ("seed", Json::Num(seed as f64)),
                ("seconds", Json::Num(seconds)),
                ("build_s", Json::Num(build_s)),
                ("ops_attempted", Json::obj(op_counts)),
            ]),
        ),
        (
            "bounds",
            spec.get("end_to_end").cloned().unwrap_or(Json::Null),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = format!("{out}/BENCH.json");
    write_file(Path::new(&path), bench.pretty().as_bytes())?;
    println!("wrote {path} (correct: {all_correct})");
    if all_correct {
        Ok(())
    } else {
        Err("at least one op failed or gave a wrong output".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_model_line() {
        let cpuinfo = "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) Processor @ 2.10GHz\nprocessor\t: 1\nmodel name\t: other\n";
        assert_eq!(
            parse_cpu_model(cpuinfo).as_deref(),
            Some("Intel(R) Xeon(R) Processor @ 2.10GHz")
        );
        assert_eq!(parse_cpu_model("processor: 0\n"), None);
    }
}
