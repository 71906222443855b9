//! Inspect the translator's output for an OpenACC program: the generated
//! pseudo-CUDA kernels, the array configuration information (paper
//! §IV-B5), and the host-op tree with its nested data regions. Reads a
//! file given as an argument, or dumps the built-in KMEANS benchmark.
//!
//! ```text
//! cargo run -p acc-apps --example inspect_translation [file.c [function]]
//! ```

use acc_compiler::{compile_source, CompileOptions, CompiledProgram, HostOp};
use acc_kernel_ir::display::kernel_to_string;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (src, func): (String, String) = match args.as_slice() {
        [] => (
            acc_apps::kmeans::SOURCE.to_string(),
            acc_apps::kmeans::FUNCTION.to_string(),
        ),
        [path] => (
            std::fs::read_to_string(path).expect("read source file"),
            guess_function(path),
        ),
        [path, func, ..] => (
            std::fs::read_to_string(path).expect("read source file"),
            func.clone(),
        ),
    };

    let prog = match compile_source(&src, &func, &CompileOptions::proposal()) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("compilation failed:\n{e}");
            std::process::exit(1);
        }
    };

    println!("=== function `{}` ===", prog.name);
    println!(
        "scalar params: {:?}",
        prog.scalar_params.iter().map(|(n, t)| format!("{t} {n}")).collect::<Vec<_>>()
    );
    println!(
        "array params:  {:?}",
        prog.array_params.iter().map(|(n, t)| format!("{t} *{n}")).collect::<Vec<_>>()
    );

    for (i, ck) in prog.kernels.iter().enumerate() {
        println!("\n--- kernel {} ---", i);
        println!("{}", kernel_to_string(&ck.kernel));
        println!("array configuration information:");
        for c in &ck.configs {
            println!(
                "  `{}`: {:?}, {:?}, localaccess: {}, miss checks elided: {}",
                c.name,
                c.mode,
                c.placement,
                c.localaccess.is_some(),
                c.miss_check_elided,
            );
            // What the runtime prices this array's memory traffic with.
            println!(
                "    read: {:?}, write: {:?}, layout transformed: {}",
                c.read_pattern, c.write_pattern, c.layout_transformed,
            );
        }
    }

    println!("\n--- host program ---");
    print_ops(&prog, &prog.host, 1);
}

fn guess_function(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("main")
        .to_string()
}

fn print_ops(prog: &CompiledProgram, ops: &[HostOp], depth: usize) {
    let pad = "  ".repeat(depth);
    for op in ops {
        match op {
            HostOp::Plain(_) => println!("{pad}host statement"),
            HostOp::If { then_, else_, .. } => {
                println!("{pad}if {{");
                print_ops(prog, then_, depth + 1);
                if !else_.is_empty() {
                    println!("{pad}}} else {{");
                    print_ops(prog, else_, depth + 1);
                }
                println!("{pad}}}");
            }
            HostOp::While { body, .. } => {
                println!("{pad}while {{");
                print_ops(prog, body, depth + 1);
                println!("{pad}}}");
            }
            HostOp::DataRegion { clauses, body } => {
                // e.g. `data copyin(pos, neigh) copy(force) {`
                let clauses: Vec<String> = clauses
                    .iter()
                    .map(|c| {
                        let arrays: Vec<&str> = c
                            .sections
                            .iter()
                            .map(|s| prog.array_params[s.buf.0 as usize].0.as_str())
                            .collect();
                        format!("{}({})", format!("{:?}", c.kind).to_lowercase(), arrays.join(", "))
                    })
                    .collect();
                println!("{pad}data {} {{", clauses.join(" "));
                print_ops(prog, body, depth + 1);
                println!("{pad}}}");
            }
            HostOp::ParallelLoop(kernel) => println!("{pad}LAUNCH kernel {kernel}"),
            HostOp::Update { host, device } => {
                println!("{pad}update host({}) device({})", host.len(), device.len())
            }
            HostOp::Return => println!("{pad}return"),
        }
    }
}
