//! Long-form explanations for every stable `ACC-XNNN` diagnostic code
//! the toolchain can emit, behind `acc-lint --explain`.
//!
//! One entry per code, across all five families: `E` (frontend errors),
//! `W` (lint warnings), `I` (inference suggestions), `R` (runtime
//! errors), `S` (acc-serve errors). The exhaustiveness test at the
//! bottom greps the whole workspace for emitted codes and fails if any
//! lacks an entry here — adding a diagnostic without explain text is a
//! CI failure, not a doc debt.

/// Every code [`explain`] covers, in rendered order.
pub const KNOWN_CODES: &[&str] = &[
    "ACC-E001", "ACC-E002", // frontend
    "ACC-W001", "ACC-W002", "ACC-W003", "ACC-W004", "ACC-W005", "ACC-W006", // lint
    "ACC-I001", "ACC-I002", "ACC-I003", // inference & analysis info
    "ACC-R001", "ACC-R002", "ACC-R003", "ACC-R004", "ACC-R005", "ACC-R006",
    "ACC-R007", "ACC-R008", "ACC-R009", "ACC-R010", "ACC-R011",
    "ACC-R012", // runtime
    "ACC-S001", "ACC-S002", "ACC-S003", "ACC-S004", "ACC-S005", "ACC-S006",
    "ACC-S007", // acc-serve
];

/// The long-form description for a stable diagnostic code: what it
/// means, an example that triggers it, and how to fix it. `None` for
/// codes the toolchain does not emit.
pub fn explain(code: &str) -> Option<&'static str> {
    Some(match code.to_ascii_uppercase().as_str() {
        "ACC-E001" => {
            "ACC-E001: non-positive localaccess stride\n\
             \n\
             The declared per-iteration read window of `localaccess(a) stride(s)\n\
             left(l) right(r)` is [s*i - l, s*(i+1) - 1 + r]. A stride below 1\n\
             makes the window degenerate: the data loader would allocate nothing\n\
             (or walk backwards) for every GPU partition.\n\
             \n\
             Example:\n\
             \x20   #pragma acc localaccess(x) stride(0)     // error\n\
             \n\
             Fix: declare the true per-iteration advance of the densest access,\n\
             e.g. `stride(1)` for x[i] or `stride(3)` for x[3*i+2]. Runtime-\n\
             valued strides are re-validated at launch time instead."
        }
        "ACC-E002" => {
            "ACC-E002: negative localaccess left/right extent\n\
             \n\
             `left` and `right` widen the per-iteration window by a constant\n\
             halo on each side; negative values would shrink it below the\n\
             stride span and cannot describe any real access pattern.\n\
             \n\
             Example:\n\
             \x20   #pragma acc localaccess(h) stride(1) left(-1)   // error\n\
             \n\
             Fix: use non-negative halo extents, e.g. `left(1) right(1)` for a\n\
             3-point stencil reading h[i-1], h[i], h[i+1]."
        }
        "ACC-W001" => {
            "ACC-W001: overlapping stores to a replicated array\n\
             \n\
             A kernel stores thread-dependent values at indices that several\n\
             threads (and therefore several GPUs) can overlap — a broadcast\n\
             like a[0] = v or an irregular a[idx[i]] = v. With the array\n\
             replicated on multiple GPUs, replica reconciliation order decides\n\
             which GPU's value survives; results can differ from single-GPU\n\
             execution.\n\
             \n\
             Example:\n\
             \x20   for (i...) { y[idx[i]] = f(i); }   // two i may share idx[i]\n\
             \n\
             Fix: make the written index injective in i (then `localaccess`\n\
             distributes the array), or express the update as a reduction with\n\
             `reductiontoarray`."
        }
        "ACC-W002" => {
            "ACC-W002: read-modify-write without reductiontoarray\n\
             \n\
             The kernel accumulates into an array element at an overlapping\n\
             index (a[k] = a[k] + v, a[k] += v, ...). Each GPU updates its own\n\
             replica, and plain replica reconciliation then *overwrites* rather\n\
             than *merges* — every GPU's partial sums but one are lost.\n\
             \n\
             Example:\n\
             \x20   for (i...) { bins[keys[i]] += w[i]; }\n\
             \n\
             Fix: annotate the accumulation site:\n\
             \x20   #pragma acc reductiontoarray(+: bins[k])\n\
             so the runtime gives each GPU a private identity-filled copy and\n\
             merges them with the declared operator after the launch."
        }
        "ACC-W003" => {
            "ACC-W003: declared localaccess window narrower than the access\n\
             \n\
             The interval analysis bounded the kernel's actual per-iteration\n\
             read range of the array, and the declared `localaccess` window is\n\
             provably narrower. The data loader sizes each GPU's partition from\n\
             the declaration, so it will under-allocate and the kernel will\n\
             fault (or the sanitizer will reject the loads).\n\
             \n\
             Example:\n\
             \x20   #pragma acc localaccess(h) stride(1)        // no halo...\n\
             \x20   for (i...) out[i] = h[i-1] + h[i] + h[i+1]; // ...but reads one\n\
             \n\
             Fix: widen the annotation to cover the true range, here\n\
             `stride(1) left(1) right(1)` — or delete it and let `--infer`\n\
             derive the exact window (see ACC-I001)."
        }
        "ACC-W004" => {
            "ACC-W004: host reads a stale replica\n\
             \n\
             Host code reads an array that a prior kernel wrote on the device,\n\
             with no intervening `update host(...)` and no flushing data-region\n\
             exit. The host silently observes pre-kernel data.\n\
             \n\
             Example:\n\
             \x20   #pragma acc parallel loop  // writes x on the GPUs\n\
             \x20   ...\n\
             \x20   s = x[0];                  // host read inside the region\n\
             \n\
             Fix: insert `#pragma acc update host(x[0:n])` before the host\n\
             read, or move the read past the data-region exit that copies the\n\
             array out."
        }
        "ACC-W005" => {
            "ACC-W005: cross-GPU race on a distributed array\n\
             \n\
             The dependence analysis *proved* that two distinct iterations of\n\
             the loop write the same element of this distributed array with\n\
             values that can differ — not a heuristic overlap smell (that is\n\
             ACC-W001) but a definite write-write race. Under distribution the\n\
             surviving value depends on which GPU's partition ran the\n\
             conflicting iteration and on reconciliation order; the program's\n\
             result is partition-dependent.\n\
             \n\
             Example:\n\
             \x20   #pragma acc localaccess(y) stride(1)\n\
             \x20   for (i...) { y[i] = v[i]; y[0] = v[i]; }  // all i fight over y[0]\n\
             \n\
             Fix: restructure so each element has one writer (or one\n\
             thread-invariant value), or express the conflicting update as a\n\
             `reductiontoarray` if it is an accumulation. The static verdict is\n\
             cross-validated dynamically: under fault injection the same\n\
             conflict reproduces as a SanitizeLevel::Full violation (ACC-R008)."
        }
        "ACC-W006" => {
            "ACC-W006: loop-carried dependence across the distributed iteration space\n\
             \n\
             The dependence analysis proved that some iteration *reads* an\n\
             element another iteration *writes* (e.g. y[i] = y[i-1] + c). The\n\
             parallel loop's iterations are distributed over GPUs and run in\n\
             no defined order, so the read may observe the old or the new\n\
             value — the sequential loop's semantics are not preserved, on any\n\
             GPU count.\n\
             \n\
             Example:\n\
             \x20   #pragma acc localaccess(y) stride(1) left(1)\n\
             \x20   for (i...) y[i] = y[i-1] + 1.0;   // reads the previous iteration's write\n\
             \n\
             Fix: restructure the algorithm (e.g. double-buffer: read from the\n\
             previous time-step's array, write the next), or keep the loop\n\
             sequential on the host. When the distance analysis *bounds* the\n\
             carried distance, the message reports how far the declared halo\n\
             falls short — widening the `localaccess` halo to cover the whole\n\
             distance interval downgrades this warning to ACC-I003 and\n\
             licenses the wavefront schedule."
        }
        "ACC-I001" => {
            "ACC-I001: localaccess annotation is inferable\n\
             \n\
             (Reported only under --infer.) The whole-program dataflow analysis\n\
             bounded every access of this unannotated array by an affine window\n\
             stride*i + [-left, stride-1+right], so a sound `localaccess`\n\
             annotation exists. Without it the array is *replicated* on every\n\
             GPU: full-size allocations, full loads, and dirty-bit replica\n\
             syncs after every writing launch. The diagnostic message carries\n\
             the exact machine-applyable pragma.\n\
             \n\
             Example:\n\
             \x20   for (i...) y[i] = a*x[i] + y[i];  // unannotated x, y\n\
             \x20   → add `#pragma acc localaccess(x) stride(1)` (and for y)\n\
             \n\
             Fix: paste the suggested pragma above the loop, or compile with\n\
             inference enabled (`CompileOptions::infer_localaccess`) to have\n\
             the compiler consume the derived annotation automatically; the\n\
             run is bit-identical to the hand-annotated program."
        }
        "ACC-I002" => {
            "ACC-I002: reductiontoarray annotation is inferable\n\
             \n\
             (Reported only under --infer.) Every store to this array is a\n\
             read-modify-write with one associative operator\n\
             (a[k] = a[k] op v) at indices several iterations can share, and\n\
             the array is not otherwise read in the kernel — exactly the\n\
             pattern the `reductiontoarray` extension exists for. The\n\
             diagnostic message carries the machine-applyable pragma.\n\
             \n\
             Example:\n\
             \x20   for (k...) sum[dst[k]] = sum[dst[k]] + w[k];\n\
             \x20   → add `#pragma acc reductiontoarray(+: sum)`\n\
             \n\
             Fix: paste the suggested pragma above the statement, or compile\n\
             with `CompileOptions::infer_reductions` to have the compiler\n\
             apply the rewrite itself; the inferred compilation is\n\
             bit-identical to the hand-annotated one (same IR, same results,\n\
             same simulated time)."
        }
        "ACC-I003" => {
            "ACC-I003: loop-carried dependence proved local to the halo\n\
             \n\
             The distance/direction-vector analysis bounded every carried\n\
             dependence on this array to a constant interval of stride\n\
             windows, and the declared `localaccess` halo covers the whole\n\
             interval: every cross-iteration value a GPU needs already lands\n\
             in its halo exchange. The dependence is real — a fully\n\
             parallel launch would read stale halos — but it is no longer\n\
             grounds to refuse distribution: the runtime's wavefront runs\n\
             the GPUs in partition order, feeding each one the freshly\n\
             written left-halo rows of its predecessors, and reproduces the\n\
             sequential loop bit-for-bit on any GPU count. The diagnostic\n\
             message carries the proved distance and the licensing pragma.\n\
             \n\
             Example:\n\
             \x20   #pragma acc localaccess(u) stride(cols) left(2*cols) right(cols)\n\
             \x20   for (i...) u[i*cols+j] = f(u[(i-2)*cols+j], ..., u[(i+1)*cols+j]);\n\
             \n\
             This is informational: nothing to fix. SanitizeLevel::Full\n\
             cross-validates the claimed distance at runtime (see ACC-R012)."
        }
        "ACC-R001" => {
            "ACC-R001: kernel or host interpretation failed\n\
             \n\
             The simulated execution hit a hard fault: out-of-bounds access,\n\
             division by zero, an unmapped buffer, or a malformed kernel. On a\n\
             distributed array this is typically a read or write outside the\n\
             GPU's resident window — the annotation promised locality the\n\
             program does not have.\n\
             \n\
             Fix: check the `localaccess` declarations against the kernel's\n\
             real footprint (run with SanitizeLevel::Full for a precise\n\
             attribution first), and the input sizes against the data clauses."
        }
        "ACC-R002" => {
            "ACC-R002: device memory error\n\
             \n\
             A simulated GPU ran out of memory (or an allocation was misused).\n\
             Replicated arrays are the usual cause: every GPU holds the full\n\
             array. Distributing large read-mostly arrays with `localaccess`\n\
             shrinks per-GPU footprints.\n\
             \n\
             Fix: add `localaccess` to the big arrays (check `acc-lint\n\
             --infer` for inferable windows), or run on more GPUs."
        }
        "ACC-R003" => {
            "ACC-R003: bad inputs\n\
             \n\
             The number or type of scalar/array inputs does not match the\n\
             compiled program's parameter list.\n\
             \n\
             Fix: pass inputs in declaration order with matching element\n\
             types; check the program's `scalar_params`/`array_params`."
        }
        "ACC-R004" => {
            "ACC-R004: invalid localaccess parameter at launch\n\
             \n\
             A `localaccess` stride/left/right expression evaluated to an\n\
             invalid value (stride < 1, negative halo) for this launch's\n\
             scalar arguments. The static check (ACC-E001/E002) can only\n\
             validate constants; runtime-valued parameters are validated here.\n\
             Also raised for a hand-built `CompiledProgram` whose array is\n\
             `Placement::Distributed` but carries no `localaccess` window.\n\
             \n\
             Fix: guard the launch against degenerate sizes, or fix the\n\
             expression."
        }
        "ACC-R005" => {
            "ACC-R005: write-miss outside every GPU's window\n\
             \n\
             A store to a distributed array missed the executing GPU's\n\
             partition *and* the miss-replay found no GPU whose resident\n\
             window covers the element — the buffered write has no owner to\n\
             land on.\n\
             \n\
             Fix: the declared windows under-cover the written range; widen\n\
             the `localaccess` halos or leave the array replicated."
        }
        "ACC-R006" => {
            "ACC-R006: present() array is not device-resident\n\
             \n\
             A `present(a)` clause promised `a` was already on the device,\n\
             but no enclosing data region materialized it.\n\
             \n\
             Fix: wrap the region in `#pragma acc data copyin/copy(a[...])`,\n\
             or change `present` to a data-movement clause."
        }
        "ACC-R007" => {
            "ACC-R007: more GPUs requested than the machine has\n\
             \n\
             Fix: lower `ExecConfig::gpus(n)` or pick a machine preset with\n\
             more GPUs (`Machine::supercomputer_node()` has 3)."
        }
        "ACC-R008" => {
            "ACC-R008: runtime sanitizer violation\n\
             \n\
             With SanitizeLevel::Full, the runtime audited every elided store\n\
             against the owner partition and every load of a distributed\n\
             array against its declared `localaccess` window — and\n\
             an access contradicted the static analysis or the annotations.\n\
             The error carries the first violating access (array, thread,\n\
             index, allowed window) and the total violation count.\n\
             \n\
             Fix: the annotation under-declares the true footprint (widen it),\n\
             or the static proof was fault-injected/unsound. Statically, the\n\
             dependence analysis reports definite hazards as ACC-W005/W006."
        }
        "ACC-R009" => {
            "ACC-R009: comm-elision audit failed\n\
             \n\
             SanitizeLevel::Full audited a static communication-elision\n\
             fact: a GPU dirtied elements outside the partition the fact\n\
             claimed all its writes stay in. Skipping the replica sync would\n\
             have left observably stale replicas.\n\
             \n\
             Fix: this indicates an unsound (or deliberately fault-injected)\n\
             static dataflow fact — report it; the unsanitized runtime would\n\
             silently compute wrong results."
        }
        "ACC-R010" => {
            "ACC-R010: source-to-IR compilation failed\n\
             \n\
             The frontend or translator rejected the source. The accompanying\n\
             diagnostics (with their own ACC-ENNN codes where stable) carry\n\
             the specifics.\n\
             \n\
             Fix: read the rendered frontend diagnostics; `acc-lint FILE`\n\
             prints them with line/column context."
        }
        "ACC-R011" => {
            "ACC-R011: dependence-proof premise violated\n\
             \n\
             The compiler proved a kernel's indirect accesses disjoint with\n\
             the monotone-window lattice: iteration i touches exactly\n\
             [p[i], p[i+1]) — disjoint across iterations *provided* the bound\n\
             array p (a CSR row_ptr, an offset table) is elementwise\n\
             non-decreasing. That premise cannot be proved statically for\n\
             runtime inputs, so sanitized launches validate it with one linear\n\
             scan — and this input failed: p[idx] > p[idx+1] for the reported\n\
             index.\n\
             \n\
             Fix: the offset array is corrupt or unsorted. Rebuild it (CSR\n\
             construction always yields non-decreasing row_ptr), or drop the\n\
             monotone proof by restructuring the kernel. Running unsanitized\n\
             would risk exactly the cross-GPU races the proof ruled out."
        }
        "ACC-R012" => {
            "ACC-R012: carried-distance audit failed\n\
             \n\
             The compiler proved a loop-carried dependence *local*\n\
             (ACC-I003): every cross-iteration read was claimed to stay\n\
             within a bounded distance of the iteration's own partition —\n\
             the fact that licenses wavefront scheduling and halo-overlapped\n\
             transfers. SanitizeLevel::Full re-checks that claim on every\n\
             load of the array, and this run observed a load *outside* the\n\
             claimed carried window: the distance interval is mislabeled,\n\
             so the wavefront's halo feed cannot cover the dependence and\n\
             distributed results would silently diverge from the sequential\n\
             loop. The launch is refused before any array state leaves the\n\
             devices.\n\
             \n\
             Fix: this indicates an unsound (or deliberately fault-injected)\n\
             distance verdict — report it; re-run with the halo widened to\n\
             the observed distance to confirm, and keep Full sanitize on\n\
             until the verdict is trusted again."
        }
        "ACC-S001" => {
            "ACC-S001: acc-serve job queue at capacity\n\
             \n\
             The daemon's bounded submission queue is full; the job was\n\
             rejected, not dropped.\n\
             \n\
             Fix: back off and resubmit; raise the daemon's queue bound if\n\
             sustained."
        }
        "ACC-S002" => {
            "ACC-S002: acc-serve wait timed out\n\
             \n\
             The client-side wait for a job outcome expired; the job may\n\
             still complete server-side.\n\
             \n\
             Fix: poll the job id again or raise the wait timeout."
        }
        "ACC-S003" => {
            "ACC-S003: malformed acc-serve request\n\
             \n\
             The request frame failed to parse or is missing a required\n\
             field.\n\
             \n\
             Fix: check the protocol version and field spelling against\n\
             `acc-serve`'s protocol docs."
        }
        "ACC-S004" => {
            "ACC-S004: job exceeds the per-job memory budget\n\
             \n\
             Admission control estimated the job's device footprint above the\n\
             daemon's configured budget and refused it up front (rather than\n\
             letting it OOM mid-run, ACC-R002).\n\
             \n\
             Fix: shrink the workload scale, or raise the daemon's budget."
        }
        "ACC-S005" => {
            "ACC-S005: unknown app name\n\
             \n\
             The requested benchmark is not in the daemon's registry\n\
             (`App::ALL`).\n\
             \n\
             Fix: list the registry (md, kmeans, bfs, spmv, heat2d,\n\
             pagerank, heat2d-halo2) and check spelling."
        }
        "ACC-S006" => {
            "ACC-S006: acc-serve is shutting down\n\
             \n\
             The daemon is draining; new submissions are refused while queued\n\
             jobs finish.\n\
             \n\
             Fix: resubmit after restart."
        }
        "ACC-S007" => {
            "ACC-S007: acc-serve socket I/O error\n\
             \n\
             Reading or writing the client connection failed mid-exchange.\n\
             \n\
             Fix: check that the daemon is alive and the socket path/port\n\
             matches; reconnect and resubmit."
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_codes_all_have_text_and_are_well_formed() {
        for &c in KNOWN_CODES {
            assert!(acc_minic::diag::is_stable_code(c), "{c} malformed");
            let text = explain(c).unwrap_or_else(|| panic!("{c} has no explain text"));
            assert!(text.starts_with(c), "{c} text must lead with the code");
            assert!(text.contains('\n'), "{c} text suspiciously short");
        }
        // Case-insensitive lookup, and honest rejection of unknowns
        // (the unknown code is assembled at runtime so the workspace
        // scan below doesn't pick up the fixture itself).
        assert!(explain("acc-w001").is_some());
        assert!(explain(&format!("ACC-W{}", 999)).is_none());
        assert!(explain("W001").is_none());
    }

    /// Find every `ACC-[EWISR]NNN` occurrence in a source text.
    fn codes_in(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let b = text.as_bytes();
        let mut i = 0;
        while let Some(at) = text[i..].find("ACC-") {
            let start = i + at;
            i = start + 4;
            let rest = &b[start + 4..];
            if rest.len() >= 4
                && matches!(rest[0], b'E' | b'W' | b'I' | b'R' | b'S')
                && rest[1..4].iter().all(|c| c.is_ascii_digit())
            {
                out.push(text[start..start + 8].to_string());
                i = start + 8;
            }
        }
        out
    }

    /// Every stable code mentioned anywhere in the workspace's Rust
    /// sources — emitted, matched, or documented — must have explain
    /// text. Scans `crates/*/src` recursively, no regex crate needed.
    #[test]
    fn every_workspace_code_has_explain_text() {
        let crates_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .to_path_buf();
        let mut stack = vec![crates_dir];
        let mut seen = std::collections::BTreeSet::new();
        let mut files = 0usize;
        while let Some(dir) = stack.pop() {
            for e in std::fs::read_dir(&dir).unwrap() {
                let path = e.unwrap().path();
                if path.is_dir() {
                    if path.file_name().is_some_and(|n| n == "target") {
                        continue;
                    }
                    stack.push(path);
                } else if path.extension().is_some_and(|x| x == "rs") {
                    files += 1;
                    let text = std::fs::read_to_string(&path).unwrap();
                    seen.extend(codes_in(&text));
                }
            }
        }
        assert!(files > 30, "workspace scan looks wrong ({files} files)");
        assert!(seen.len() >= 30, "expected the full code census, got {seen:?}");
        for c in &seen {
            assert!(
                explain(c).is_some(),
                "`{c}` appears in the workspace but has no `--explain` entry"
            );
        }
        // And the registry stays in sync both ways.
        for &c in KNOWN_CODES {
            assert!(seen.contains(c), "KNOWN_CODES lists `{c}` but nothing emits it");
        }
    }
}
