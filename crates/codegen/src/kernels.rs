//! The one printer over the lowered [`etir::loops::Nest`] — the same
//! object `interp` executes — in two dialects: CUDA-C and pseudo-code.
//!
//! How each `Item` kind is printed (and, in `interp::exec`, run): a `Loop`
//! bound to `Grid`/`Thread` is a `blockIdx`/`threadIdx` read (the leading
//! dimensions [`crate::launch`] fuses into `.z` decomposed back per loop),
//! any other a `for`, under `#pragma unroll N` if `Unrolled`, and a unit
//! loop nothing; a `CacheRead` to shared memory is a `__shared__` buffer of
//! the box size, a tid-strided cooperative load that zero-fills where the
//! access predicate fails, and a `__syncthreads()` either side of the body
//! that reads it (to registers: a comment, promotion is `nvcc`'s);
//! `CacheWrite` is a zeroed accumulator array, the body, then the
//! accumulator's own loops again around a masked store; `Compute` is
//! guarded where an axis is padded past its true extent and reads every
//! input from its shared-memory stage. Constants are baked into the source
//! the way TVM's codegen bakes schedule parameters.

use crate::launch::{pack3, unpack3, LaunchConfig};
use etir::analytics::ScheduleStats;
use etir::loops::{Binding, Item, Level, Loop, Nest, Stage};
use etir::{Etir, LoopNest};
use std::fmt::Write;
use tensor_expr::{Access, DimAccess, OpSpec};

/// Emit a complete CUDA-C translation unit (kernel + launch helper comment)
/// for the scheduled program `e`.
pub fn emit_cuda(e: &Etir) -> String {
    let _sp = obs::span!("codegen.emit", kind = "cuda", op = e.op.label());
    obs::counter_inc!("gensor_codegen_emits_total", "Code-generation emissions");
    let summary = checked_summary(e);
    let smem = ScheduleStats::compute(e).smem_bytes_per_block;
    let launch = LaunchConfig::from_nest(&summary, smem);
    format!(
        "// Auto-generated by gensor-codegen\n// op: {}\n// schedule: {}\n\
         // launch: grid={:?} block={:?} smem={}B\n\n{}",
        e.op.label(),
        e.describe(),
        launch.grid,
        launch.block,
        launch.smem_bytes,
        print(&e.op, &summary.to_nest(), true)
    )
}

/// The `LoopNest` summary of `e`, refusing (in debug builds) a schedule the
/// static verifier rejects: an illegal nest would bake out-of-bounds
/// indices into the text.
pub(crate) fn checked_summary(e: &Etir) -> LoopNest {
    #[cfg(debug_assertions)]
    {
        let vr = verify::verify_schedule(e, None);
        assert!(
            vr.is_legal(),
            "refusing to emit code for illegal schedule:\n{}",
            vr.render()
        );
    }
    LoopNest::from_etir(e)
}

/// Print `nest` as a CUDA kernel (`cuda`) or as indented pseudo-code.
pub(crate) fn print(op: &OpSpec, nest: &Nest, cuda: bool) -> String {
    let bound_to = |b: Binding| -> Vec<u64> {
        let loops = nest.loops().into_iter().filter(|l| l.binding == b);
        loops.map(|l| l.extent).collect()
    };
    let mut cover = vec![1; nest.extents.len()];
    for l in nest.loops() {
        cover[l.axis] += (l.extent - 1) * l.stride;
    }
    let (acc_stride, acc_len) = nest.acc_strides();
    let mut p = Printer {
        op,
        nest,
        cuda,
        out: String::new(),
        scope: Vec::new(),
        stages: Vec::new(),
        grid: bound_to(Binding::Grid),
        threads: bound_to(Binding::Thread),
        acc_stride,
        acc_len,
        cover,
    };
    if cuda {
        p.signature();
    }
    p.item(0, usize::from(cuda), false);
    if cuda {
        p.out.push_str("}\n");
    }
    p.out
}

struct Printer<'a> {
    op: &'a OpSpec,
    nest: &'a Nest,
    cuda: bool,
    out: String,
    /// Enclosing non-unit loops, outer→inner: C identifier, loop, and its
    /// accumulator stride ([`Nest::acc_strides`]).
    scope: Vec<(String, &'a Loop, u64)>,
    /// Live shared-memory stages with the scope depth at the marker: the
    /// loops from there on are served, as are thread/vthread loops.
    stages: Vec<(&'a Stage, usize)>,
    /// Extents of the `Grid` / `Thread` loops, outer→inner.
    grid: Vec<u64>,
    threads: Vec<u64>,
    acc_stride: Vec<u64>,
    acc_len: u64,
    /// Per axis: how far its loops reach (`> extents[axis]` when padded).
    cover: Vec<u64>,
}

/// ` <op> n`, or nothing when `n` is 1 (the identity of `*`, `/`) or 0.
fn by(op: char, n: u64) -> String {
    match n {
        0 | 1 => String::new(),
        _ => format!(" {op} {n}"),
    }
}

/// `if (cond) then`, or just `then` when there is nothing to check.
fn when(cond: &str, then: String) -> String {
    match cond {
        "" => then,
        _ => format!("if ({cond}) {then}"),
    }
}

/// The multiple of loop `l`'s variable in tensor index `d`.
fn weight(d: &DimAccess, l: &Loop) -> u64 {
    let on_axis = d.terms.iter().filter(|t| t.0 == l.axis);
    on_axis.map(|t| t.1 * l.stride).sum()
}

impl<'a> Printer<'a> {
    fn line(&mut self, depth: usize, text: impl std::fmt::Display) {
        let indent = if self.cuda { 4 } else { 2 } * depth;
        self.out.extend(std::iter::repeat_n(' ', indent));
        writeln!(self.out, "{text}").expect("writing to a String cannot fail");
    }

    /// `Σ coef(scope position, loop, its accumulator stride) · var +
    /// constant` over the in-scope loops, as a C expression.
    fn sum(&self, constant: i64, coef: impl Fn(usize, &Loop, u64) -> u64) -> String {
        let mut s = String::new();
        for (k, (id, l, acc)) in self.scope.iter().enumerate() {
            let c = coef(k, l, *acc);
            if c > 0 {
                s.push_str(if s.is_empty() { "" } else { " + " });
                s.push_str(id);
                s.push_str(&by('*', c));
            }
        }
        match (s.is_empty(), constant) {
            (true, c) => c.to_string(),
            (false, 0) => s,
            (false, c) if c < 0 => format!("{s} - {}", -c),
            (false, c) => format!("{s} + {c}"),
        }
    }

    /// Print `const int d0 = …; const int d1 = …;` — the coordinates of
    /// `access` over the in-scope loops `keep` admits, plus `local(k)` —
    /// and return the element they address (flat, in `long`) with the
    /// conjunction of bounds they can violate given the loops' reach.
    fn indexed(
        &mut self,
        access: &Access,
        depth: usize,
        keep: impl Fn(usize, &Loop) -> bool,
        local: impl Fn(usize) -> Option<String>,
    ) -> (String, String) {
        let (mut at, mut checks) = (String::new(), Vec::new());
        for (k, d) in access.dims.iter().enumerate() {
            let outer = self.sum(d.offset, |k, l, _| u64::from(keep(k, l)) * weight(d, l));
            let index = match (outer.as_str(), local(k)) {
                (_, None) => outer,
                ("0", Some(local)) => local,
                (_, Some(local)) => format!("{outer} + {local}"),
            };
            self.line(depth, format_args!("const int d{k} = {index};"));
            at = match k {
                0 => "(long)d0".to_string(),
                1 => format!("{at} * {} + d1", d.extent),
                _ => format!("({at}) * {} + d{k}", d.extent),
            };
            let reach: u64 = d.terms.iter().map(|&(a, c)| c * (self.cover[a] - 1)).sum();
            if d.offset < 0 {
                checks.push(format!("d{k} >= 0"));
            }
            if d.offset + reach as i64 >= d.extent as i64 {
                checks.push(format!("d{k} < {}", d.extent));
            }
        }
        (format!("{}[{at}]", access.name), checks.join(" && "))
    }

    /// Kernel signature and the linear thread id the cooperative loads
    /// stride by. The kernel is named after the operator class.
    fn signature(&mut self) {
        let label = self.op.label();
        let class = label[..label.find('[').unwrap_or(0)].to_lowercase();
        self.line(
            0,
            format_args!("extern \"C\" __global__ void {class}_kernel("),
        );
        let (output, inputs) = self.nest.operands.split_last().expect("lowered nest");
        for a in inputs {
            let param = format!("const float* __restrict__ {},  // {:?}", a.name, a.shape());
            self.line(1, &param);
        }
        let shape = output.shape();
        let param = format!("float* __restrict__ {})  // {shape:?}", output.name);
        self.line(1, &param);
        self.line(0, "{");
        let (bx, by, _) = pack3(&self.threads);
        let tid = format!("(threadIdx.z * {by} + threadIdx.y) * {bx} + threadIdx.x");
        self.line(1, format_args!("const int tid = {tid};"));
    }

    /// Print `items[i..]` — each item's body is the rest of the list. With
    /// `store` set this is the write-back pass: only the accumulator's own
    /// loops are printed, around a store in place of the compute.
    fn item(&mut self, i: usize, depth: usize, store: bool) {
        let nest = self.nest;
        let (output, inputs) = nest.operands.split_last().expect("lowered nest");
        let item = &nest.items[i];
        if !self.cuda {
            let text = match item {
                Item::Loop(l) => {
                    let tag = match l.binding {
                        Binding::Grid => " // blockIdx".to_string(),
                        Binding::VThread => " // vthread".to_string(),
                        Binding::Thread => " // threadIdx".to_string(),
                        Binding::Unrolled(n) => format!(" // #pragma unroll {n}"),
                        Binding::Serial => String::new(),
                    };
                    format!("for {} in 0..{}{tag}", l.name, l.extent)
                }
                Item::CacheRead(s) => {
                    let level = format!("{:?}", s.level).to_uppercase();
                    format!("stage {} -> {level} {:?}", inputs[s.operand].name, s.shape)
                }
                Item::CacheWrite => "acc = 0".to_string(),
                Item::Compute => {
                    let names: Vec<&str> = inputs.iter().map(|a| a.name.as_str()).collect();
                    format!("compute acc += {}", names.join(self.op.combine().infix()))
                }
            };
            self.line(depth, &text);
            let nested = usize::from(matches!(item, Item::Loop(_)));
            if *item != Item::Compute {
                self.item(i + 1, depth + nested, false);
            }
            if *item == Item::CacheWrite {
                self.line(depth, format_args!("write {} <- acc", output.name));
            }
            return;
        }
        match item {
            Item::Loop(l) if l.extent == 1 || (store && self.acc_stride[i] == 0) => {
                self.item(i + 1, depth, store)
            }
            Item::Loop(l) => {
                let id = format!("{}{i}", l.name.split('.').next().unwrap_or_default());
                self.scope.push((id.clone(), l, self.acc_stride[i]));
                let same = |it: &Item| matches!(it, Item::Loop(o) if o.binding == l.binding);
                let nth = nest.items[..i].iter().filter(|it| same(it)).count();
                match l.binding {
                    Binding::Grid | Binding::Thread => {
                        let index = match l.binding {
                            Binding::Grid => unpack3("blockIdx", &self.grid, nth),
                            _ => unpack3("threadIdx", &self.threads, nth),
                        };
                        self.line(
                            depth,
                            format_args!("const int {id} = {index};  // {}", l.name),
                        );
                        self.item(i + 1, depth, store);
                    }
                    _ => {
                        if let Binding::Unrolled(n) = l.binding {
                            self.line(depth, format_args!("#pragma unroll {n}"));
                        }
                        let head = format!("for (int {id} = 0; {id} < {}; ++{id}) {{", l.extent);
                        self.line(depth, format_args!("{head}  // {}", l.name));
                        self.item(i + 1, depth + 1, store);
                        self.line(depth, "}");
                    }
                }
                self.scope.pop();
            }
            Item::CacheRead(_) if store => self.item(i + 1, depth, store),
            Item::CacheRead(s) if s.level == Level::Reg => {
                let name = &inputs[s.operand].name;
                self.line(depth, format_args!("// {name} {:?} -> registers", s.shape));
                self.item(i + 1, depth, store);
            }
            Item::CacheRead(s) => {
                self.cooperative_load(s, depth);
                let next_is_load =
                    matches!(&nest.items[i + 1], Item::CacheRead(n) if n.level == Level::Smem);
                if !next_is_load {
                    self.line(depth, "__syncthreads();");
                }
                self.stages.push((s, self.scope.len()));
                self.item(i + 1, depth, store);
                self.stages.pop();
                if !next_is_load {
                    self.line(depth, "__syncthreads();");
                }
            }
            Item::CacheWrite => {
                let cells = self.acc_len;
                self.line(depth, format_args!("float acc[{cells}] = {{0.0f}};"));
                self.item(i + 1, depth, false);
                self.item(i + 1, depth, true);
            }
            Item::Compute if store => {
                let (target, mask) = self.indexed(output, depth, |_, _| true, |_| None);
                let mean = match self.op.divisor() {
                    1 => String::new(),
                    n => format!(" / {n}.0f"),
                };
                let store = format!("{target} = acc[{}]{mean};", self.sum(0, |_, _, cell| cell));
                self.line(depth, when(&mask, store));
            }
            Item::Compute => {
                let padded = (0..nest.extents.len()).filter(|&a| self.cover[a] > nest.extents[a]);
                let guard: Vec<String> = padded
                    .map(|a| {
                        let var = self.sum(0, |_, l, _| u64::from(l.axis == a) * l.stride);
                        format!("{var} < {}", nest.extents[a])
                    })
                    .collect();
                let reads: Vec<String> = (0..inputs.len()).map(|o| self.staged_read(o)).collect();
                let sum = reads.join(self.op.combine().infix());
                let fold = format!("acc[{}] += {sum};", self.sum(0, |_, _, cell| cell));
                self.line(depth, when(&guard.join(" && "), fold));
            }
        }
    }

    /// The block's threads fill the shared buffer of `s`: thread `tid`
    /// copies elements `tid, tid + NT, …` of the box (row-major), zero
    /// where the access predicate fails.
    fn cooperative_load(&mut self, s: &Stage, depth: usize) {
        let access = &self.nest.operands[s.operand];
        let (size, nt): (u64, u64) = (s.shape.iter().product(), self.threads.iter().product());
        let buffer = format!("{}_s", access.name);
        let decl = format!("__shared__ float {buffer}[{size}];  // {:?}", s.shape);
        self.line(depth, &decl);
        let head = format!("for (int idx = tid; idx < {size}; idx += {nt}) {{");
        self.line(depth, &head);
        // `idx` walks the box row-major; its `k`-th coordinate within it:
        let local = |k: usize| {
            let wrap = if k > 0 { s.shape[k] } else { 1 };
            let inner = s.shape[k + 1..].iter().product();
            (s.shape[k] > 1).then(|| format!("idx{}{}", by('/', inner), by('%', wrap)))
        };
        // Origin: the access over the loops the stage does not serve.
        let (load, mask) = self.indexed(access, depth + 1, |_, l| !l.within_block(), local);
        let value = match mask.as_str() {
            "" => load,
            _ => format!("({mask}) ? {load} : 0.0f"),
        };
        self.line(depth + 1, format_args!("{buffer}[idx] = {value};"));
        self.line(depth, "}");
    }

    /// `operand` as `Compute` reads it: from its innermost shared-memory
    /// stage, indexed relative to the stage's origin.
    fn staged_read(&self, operand: usize) -> String {
        let live = self.stages.iter().rev().find(|s| s.0.operand == operand);
        let &(stage, from) = live.expect("to_nest stages every input in shared memory");
        let access = &self.nest.operands[operand];
        let within = |l: &Loop| -> u64 {
            let dims = access.dims.iter().enumerate();
            dims.map(|(k, d)| stage.shape[k + 1..].iter().product::<u64>() * weight(d, l))
                .sum()
        };
        let served = |k: usize, l: &Loop| k >= from || l.within_block();
        let at = self.sum(0, |k, l, _| u64::from(served(k, l)) * within(l));
        format!("{}_s[{at}]", access.name)
    }
}

/// Count of `{` minus `}` — zero for well-formed emissions.
pub fn brace_balance(src: &str) -> i64 {
    src.chars().fold(0i64, |acc, c| match c {
        '{' => acc + 1,
        '}' => acc - 1,
        _ => acc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use etir::Action;
    use hardware::GpuSpec;

    fn apply_seq(mut e: Etir, actions: &[Action]) -> Etir {
        for a in actions {
            if e.can_apply(a) {
                e = e.apply(a);
            }
        }
        e
    }

    fn gemm_sched() -> Etir {
        let spec = GpuSpec::rtx4090();
        let e = Etir::initial(OpSpec::gemm(512, 256, 512), &spec);
        apply_seq(
            e,
            &[
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 1 },
                Action::Tile { dim: 1 },
                Action::Tile { dim: 1 },
                Action::Tile { dim: 1 },
                Action::Tile { dim: 1 },
                Action::TileReduce { dim: 0 },
                Action::TileReduce { dim: 0 },
                Action::TileReduce { dim: 0 },
                Action::Cache,
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 1 },
                Action::SetVthread { dim: 0 },
                Action::Unroll,
                Action::Unroll,
            ],
        )
    }

    /// Floats declared `__shared__` in `src`.
    fn shared_floats(src: &str) -> u64 {
        src.lines()
            .filter_map(|l| l.trim().strip_prefix("__shared__ float "))
            .map(|decl| {
                let (open, close) = (decl.find('[').unwrap(), decl.find(']').unwrap());
                decl[open + 1..close].parse::<u64>().unwrap()
            })
            .sum()
    }

    fn barriers(src: &str) -> usize {
        src.matches("__syncthreads();").count()
    }

    #[test]
    fn gemm_emission_structure() {
        let e = gemm_sched();
        let src = emit_cuda(&e);
        assert_eq!(brace_balance(&src), 0, "unbalanced braces:\n{src}");
        assert!(src.contains("__global__ void gemm_kernel"));
        // One reduction step of the block tile per operand.
        let (tm, tn, tk) = (e.smem_tile[0], e.smem_tile[1], e.reduce_tile[0]);
        let a = format!("__shared__ float A_s[{}];  // [{tm}, {tk}]", tm * tk);
        let b = format!("__shared__ float B_s[{}];  // [{tk}, {tn}]", tk * tn);
        assert!(src.contains(&a) && src.contains(&b), "{src}");
        assert!(src.contains(&format!("#pragma unroll {}", e.unroll)));
        // Two barriers per staged step, however many operands it stages.
        assert_eq!(barriers(&src), 2);
        // The vthread strip-mine is a loop of the schedule's extent.
        let strip = src
            .lines()
            .find(|l| l.ends_with("// m.inner.outer"))
            .unwrap();
        assert!(strip.contains(&format!(" < {}; ", e.vthreads[0])), "{src}");
        // 512×256×512 divides evenly: no mask is printed…
        assert!(!src.contains("if (") && !src.contains(" ? "), "{src}");
        // …a ragged shape masks the load, the compute and the store.
        let spec = GpuSpec::rtx4090();
        let ragged = apply_seq(
            Etir::initial(OpSpec::gemm(100, 60, 24), &spec),
            &[
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 1 },
                Action::Tile { dim: 1 },
                Action::Tile { dim: 1 },
                Action::TileReduce { dim: 0 },
                Action::TileReduce { dim: 0 },
                Action::TileReduce { dim: 0 },
                Action::Cache,
                Action::Tile { dim: 0 },
            ],
        );
        let src = emit_cuda(&ragged);
        assert!(src.contains("(d0 < 100 && d1 < 60) ? A["), "{src}");
        let fold = src.lines().find(|l| l.contains("] += ")).unwrap().trim();
        assert!(
            fold.starts_with("if (") && fold.contains(" < 100 && "),
            "{src}"
        );
        assert!(fold.contains(" < 60) acc["), "{src}");
        assert!(src.contains("if (d0 < 100) C["), "{src}");
    }

    #[test]
    fn gemm_header_records_schedule_and_launch() {
        let src = emit_cuda(&gemm_sched());
        assert!(src.contains("// op: GEMM[512,256,512]"));
        assert!(src.contains("// launch: grid="));
        assert!(src.contains("smem="));
    }

    #[test]
    fn gemv_emission_structure() {
        let spec = GpuSpec::rtx4090();
        let e = apply_seq(
            Etir::initial(OpSpec::gemv(1000, 512), &spec),
            &[
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::TileReduce { dim: 0 },
                Action::TileReduce { dim: 0 },
                Action::Cache,
                Action::Tile { dim: 0 },
                Action::SetVthread { dim: 0 },
            ],
        );
        let src = emit_cuda(&e);
        assert_eq!(brace_balance(&src), 0);
        assert!(src.contains("gemv_kernel"));
        // Both operands are staged: a 64×4 tile of A and 4 elements of x.
        assert!(
            src.contains("__shared__ float A_s[256];  // [64, 4]"),
            "{src}"
        );
        assert!(src.contains("__shared__ float x_s[4];  // [4]"));
        assert_eq!(barriers(&src), 2);
        // 1000 rows under 64-row tiles: the last block is masked.
        assert!(src.contains("if (d0 < 1000) y["), "{src}");
    }

    #[test]
    fn conv_emission_structure() {
        let spec = GpuSpec::rtx4090();
        let e = apply_seq(
            Etir::initial(OpSpec::conv2d(8, 32, 28, 28, 64, 3, 3, 1, 1), &spec),
            &[
                Action::Tile { dim: 1 },
                Action::Tile { dim: 1 },
                Action::Tile { dim: 1 },
                Action::Tile { dim: 2 },
                Action::Tile { dim: 2 },
                Action::Tile { dim: 3 },
                Action::Tile { dim: 3 },
                Action::TileReduce { dim: 0 },
                Action::TileReduce { dim: 0 },
                Action::Cache,
                Action::Tile { dim: 1 },
                Action::SetVthread { dim: 2 },
            ],
        );
        let src = emit_cuda(&e);
        assert_eq!(brace_balance(&src), 0, "{src}");
        assert!(src.contains("conv2d_kernel"));
        // Halo arithmetic: the staged rows start one (the padding) above
        // the block's first output row, and padding reads are zero-filled.
        let row = src.lines().find(|l| l.contains("const int d2 = ")).unwrap();
        assert!(
            row.contains(" * 4 + ") && row.contains(" - 1 + idx"),
            "{src}"
        );
        assert!(src.contains("(d2 >= 0 && d2 < 28 && d3 >= 0 && d3 < 28) ? I["));
        // One kernel tap of four input channels per step: the 4×4 input
        // window and the weights are both staged.
        assert!(
            src.contains("__shared__ float I_s[64];  // [1, 4, 4, 4]"),
            "{src}"
        );
        assert!(
            src.contains("__shared__ float K_s[32];  // [8, 4, 1, 1]"),
            "{src}"
        );
        assert_eq!(barriers(&src), 2);
    }

    #[test]
    fn pool_emission_structure() {
        let spec = GpuSpec::rtx4090();
        let e = apply_seq(
            Etir::initial(OpSpec::avg_pool2d(16, 48, 48, 48, 2, 2), &spec),
            &[
                Action::Tile { dim: 1 },
                Action::Tile { dim: 2 },
                Action::Tile { dim: 2 },
                Action::Tile { dim: 3 },
                Action::Tile { dim: 3 },
                Action::Unroll,
            ],
        );
        let src = emit_cuda(&e);
        assert_eq!(brace_balance(&src), 0);
        assert!(src.contains("avgpool2d_kernel"));
        // finalize: the window sum over F·F.
        assert!(src.contains("] = acc[0] / 4.0f;"), "{src}");
        // Unit window tile at stride 2: (4 − 1)·2 + 1 = 7 input rows/cols.
        assert_eq!(shared_floats(&src), 2 * 7 * 7, "{src}");
    }

    #[test]
    fn elementwise_emission_structure() {
        let spec = GpuSpec::rtx4090();
        let e = apply_seq(
            Etir::initial(OpSpec::elementwise(100_000, 2, 1), &spec),
            &[
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Cache,
                Action::Tile { dim: 0 },
            ],
        );
        let src = emit_cuda(&e);
        assert_eq!(brace_balance(&src), 0);
        assert!(src.contains("] + X1_s["), "{src}");
        assert!(src.contains("if (d0 < 100000) O["), "{src}");
    }

    #[test]
    fn emission_is_deterministic() {
        let a = emit_cuda(&gemm_sched());
        let b = emit_cuda(&gemm_sched());
        assert_eq!(a, b);
    }

    #[test]
    fn accumulator_size_matches_schedule() {
        let e = gemm_sched();
        let src = emit_cuda(&e);
        let cells: u64 = e
            .vthreads
            .iter()
            .zip(&e.reg_tile)
            .map(|(v, r)| v * r)
            .product();
        assert!(
            src.contains(&format!("float acc[{cells}] = {{0.0f}};")),
            "{src}"
        );
    }

    #[test]
    fn declared_shared_memory_is_what_the_cost_model_charges() {
        let e = gemm_sched();
        let src = emit_cuda(&e);
        let stats = ScheduleStats::compute(&e);
        assert_eq!(shared_floats(&src) * 4, stats.smem_bytes_per_block);
        assert!(src.contains(&format!("smem={}B", stats.smem_bytes_per_block)));
    }

    /// The printed form of the `gemm_sched()` fixture, pinned so a printer
    /// change is a deliberate one.
    #[test]
    fn gemm_fixture_golden() {
        let e = gemm_sched();
        assert_eq!(emit_cuda(&e), GOLDEN_CUDA, "\n{}", emit_cuda(&e));
        let pseudo = crate::emit_pseudo(&e);
        assert_eq!(pseudo, GOLDEN_PSEUDO, "\n{pseudo}");
    }

    const GOLDEN_CUDA: &str = r#"// Auto-generated by gensor-codegen
// op: GEMM[512,256,512]
// schedule: smem[64, 32] reg[4, 2] vt[2, 1] red[8] u4 @lvl1
// launch: grid=(16, 8, 1) block=(16, 8, 1) smem=3072B

extern "C" __global__ void gemm_kernel(
    const float* __restrict__ A,  // [512, 256]
    const float* __restrict__ B,  // [256, 512]
    float* __restrict__ C)  // [512, 512]
{
    const int tid = (threadIdx.z * 8 + threadIdx.y) * 16 + threadIdx.x;
    const int m0 = blockIdx.y;  // m.outer
    const int n1 = blockIdx.x;  // n.outer
    const int m2 = threadIdx.y;  // m.inner.inner.outer
    const int n3 = threadIdx.x;  // n.inner.inner.outer
    float acc[16] = {0.0f};
    for (int k5 = 0; k5 < 32; ++k5) {  // k.outer
        __shared__ float A_s[512];  // [64, 8]
        for (int idx = tid; idx < 512; idx += 128) {
            const int d0 = m0 * 64 + idx / 8;
            const int d1 = k5 * 8 + idx % 8;
            A_s[idx] = A[(long)d0 * 256 + d1];
        }
        __shared__ float B_s[256];  // [8, 32]
        for (int idx = tid; idx < 256; idx += 128) {
            const int d0 = k5 * 8 + idx / 32;
            const int d1 = n1 * 32 + idx % 32;
            B_s[idx] = B[(long)d0 * 512 + d1];
        }
        __syncthreads();
        #pragma unroll 4
        for (int k8 = 0; k8 < 8; ++k8) {  // k.inner
            // A [36, 1] -> registers
            // B [1, 2] -> registers
            for (int m11 = 0; m11 < 2; ++m11) {  // m.inner.outer
                for (int m13 = 0; m13 < 4; ++m13) {  // m.inner.inner.inner
                    for (int n14 = 0; n14 < 2; ++n14) {  // n.inner.inner.inner
                        acc[m11 * 8 + m13 * 2 + n14] += A_s[m2 * 32 + k8 + m11 * 256 + m13 * 8] * B_s[n3 * 2 + k8 * 32 + n14];
                    }
                }
            }
        }
        __syncthreads();
    }
    for (int m11 = 0; m11 < 2; ++m11) {  // m.inner.outer
        for (int m13 = 0; m13 < 4; ++m13) {  // m.inner.inner.inner
            for (int n14 = 0; n14 < 2; ++n14) {  // n.inner.inner.inner
                const int d0 = m0 * 64 + m2 * 4 + m11 * 32 + m13;
                const int d1 = n1 * 32 + n3 * 2 + n14;
                C[(long)d0 * 512 + d1] = acc[m11 * 8 + m13 * 2 + n14];
            }
        }
    }
}
"#;
    const GOLDEN_PSEUDO: &str = r#"// GEMM[512,256,512] — smem[64, 32] reg[4, 2] vt[2, 1] red[8] u4 @lvl1
for m.outer in 0..8 // blockIdx
  for n.outer in 0..16 // blockIdx
    for m.inner.inner.outer in 0..8 // threadIdx
      for n.inner.inner.outer in 0..16 // threadIdx
        acc = 0
        for k.outer in 0..32
          stage A -> SMEM [64, 8]
          stage B -> SMEM [8, 32]
          for k.inner in 0..8 // #pragma unroll 4
            stage A -> REG [36, 1]
            stage B -> REG [1, 2]
            for m.inner.outer in 0..2 // vthread
              for n.inner.outer in 0..1 // vthread
                for m.inner.inner.inner in 0..4
                  for n.inner.inner.inner in 0..2
                    compute acc += A * B
        write C <- acc
"#;
}
