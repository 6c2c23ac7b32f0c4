//! Operator descriptors and their iteration-space / footprint algebra.

use serde::{Deserialize, Serialize};
use std::fmt;

/// All tensors in this stack are FP32.
pub const DTYPE_BYTES: u64 = 4;

/// Coarse operator class, used for reporting and for the vendor-library
/// template tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    Conv2d,
    Gemm,
    Gemv,
    AvgPool2d,
    Elementwise,
}

impl OpClass {
    /// Short display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Conv2d => "Conv2d",
            OpClass::Gemm => "GEMM",
            OpClass::Gemv => "GEMV",
            OpClass::AvgPool2d => "AvgPooling2d",
            OpClass::Elementwise => "Elementwise",
        }
    }

    /// Metric-name suffix for the per-class observability series
    /// `gensor_core_walk_step_us_<key>`, and the `class` field of
    /// `walk.step` events: the coarse
    /// matmul / conv / reduce / elementwise split, snake_case-safe for
    /// Prometheus names. GEMM and GEMV are both `matmul` (one class of
    /// tensor-contraction behaviour); pooling is the `reduce` shape.
    pub fn metric_key(self) -> &'static str {
        match self {
            OpClass::Gemm | OpClass::Gemv => "matmul",
            OpClass::Conv2d => "conv",
            OpClass::AvgPool2d => "reduce",
            OpClass::Elementwise => "elementwise",
        }
    }
}

/// Per-operand element counts touched by one tile of the iteration space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TileFootprint {
    /// Elements of each *input* operand the tile reads (order matches
    /// [`OpSpec::accesses`]).
    pub inputs: Extents,
    /// Elements of the output operand the tile writes.
    pub output: u64,
    /// Innermost contiguous extent (elements) of each input region — the
    /// run length a cooperative load streams from DRAM. Short runs waste
    /// memory-transaction bandwidth (see `simgpu`'s coalescing model).
    pub rows: Extents,
}

/// One value per axis or per operand, held inline: an operator's spatial
/// or reduce extents, a schedule's tiles along them, and a tile's
/// per-input footprints and row runs. No operator has more than
/// [`Extents::MAX`] axes of either kind or more than that many inputs, so
/// copying a schedule or costing a tile never touches the heap.
///
/// Built with `collect()` or `From<[u64; N]>` (both panic past
/// [`Extents::MAX`] values); derefs to `[u64]`; equality and hashing see
/// only those values; serializes as a plain JSON array, exactly as a
/// `Vec<u64>` does, and refuses to deserialize a longer one. Call
/// `.to_vec()` where a `Vec` is really needed.
#[derive(Clone, Copy, Default)]
pub struct Extents {
    vals: [u64; Extents::MAX],
    len: u8,
}

impl Extents {
    /// Most axes of one kind (conv and pool: 4 spatial), and most inputs,
    /// any operator has.
    pub const MAX: usize = 4;
}

impl std::ops::Deref for Extents {
    type Target = [u64];
    #[inline]
    fn deref(&self) -> &[u64] {
        &self.vals[..self.len as usize]
    }
}

impl std::ops::DerefMut for Extents {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        &mut self.vals[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a Extents {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<u64> for Extents {
    #[inline]
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let (mut vals, mut len) = ([0; Extents::MAX], 0);
        for v in iter {
            vals[len] = v;
            len += 1;
        }
        Extents {
            vals,
            len: len as u8,
        }
    }
}

impl<const N: usize> From<[u64; N]> for Extents {
    #[inline]
    fn from(vals: [u64; N]) -> Self {
        const { assert!(N <= Extents::MAX, "more extents than fit") };
        let mut out = Extents {
            len: N as u8,
            ..Extents::default()
        };
        out.vals[..N].copy_from_slice(&vals);
        out
    }
}

impl From<Vec<u64>> for Extents {
    #[inline]
    fn from(vals: Vec<u64>) -> Self {
        vals.into_iter().collect()
    }
}

impl PartialEq for Extents {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Extents {}

impl std::hash::Hash for Extents {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl std::fmt::Debug for Extents {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl Serialize for Extents {
    fn to_value(&self) -> serde::Value {
        (**self).to_value()
    }
}

impl Deserialize for Extents {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::DeError> {
        let vals = v
            .as_array()
            .ok_or_else(|| serde::DeError::custom(format!("expected array, got {v:?}")))?;
        if vals.len() > Extents::MAX {
            return Err(serde::DeError::custom(format!(
                "{} values where at most {} fit",
                vals.len(),
                Extents::MAX
            )));
        }
        vals.iter().map(u64::deserialize).collect()
    }
}

/// One tensor dimension of an operand access: the index is
/// `Σ coef · x[axis] + offset` over the iteration variables `x` (spatial
/// axes first, then reduce axes), and the access is in bounds iff
/// `0 ≤ index < extent`. That one predicate is conv's zero padding, pool's
/// clipped window and every ragged tile edge.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DimAccess {
    /// `(axis, coefficient)` summands.
    pub terms: Vec<(usize, u64)>,
    /// Constant summand (`-pad` for a padded conv input).
    pub offset: i64,
    /// Extent of this tensor dimension.
    pub extent: u64,
}

impl DimAccess {
    /// The (possibly out-of-bounds) index at iteration `point`.
    pub fn at(&self, point: &[u64]) -> i64 {
        self.terms
            .iter()
            .fold(self.offset, |i, &(a, c)| i + (c * point[a]) as i64)
    }
}

/// What one operand reads (or the output writes) per iteration point: one
/// [`DimAccess`] per tensor dimension, outermost first, row-major storage.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Access {
    /// Operand name, also the kernel parameter name.
    pub name: String,
    pub dims: Vec<DimAccess>,
}

impl Access {
    /// Extents of the tensor behind the access, outermost first.
    pub fn shape(&self) -> Vec<usize> {
        self.dims.iter().map(|d| d.extent as usize).collect()
    }

    /// Per-dimension extent of the bounding box touched by a box of
    /// `tile[axis]` iteration points per axis (every `tile[axis] ≥ 1`).
    pub fn tile_box(&self, tile: &[u64]) -> Vec<u64> {
        self.dims
            .iter()
            .map(|d| 1 + d.terms.iter().map(|&(a, c)| c * (tile[a] - 1)).sum::<u64>())
            .collect()
    }
}

/// How the operand values of one iteration point combine into the
/// accumulator (`interp::semantics::combine` evaluates it, `codegen`
/// prints [`Combine::infix`] between the operand reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    Product,
    Sum,
}

impl Combine {
    /// The C operator between operand reads.
    pub fn infix(self) -> &'static str {
        match self {
            Combine::Product => " * ",
            Combine::Sum => " + ",
        }
    }
}

/// An operator instance: class + concrete shape.
///
/// The iteration space is split into *spatial* axes (each output element is
/// identified by one point of the spatial space) and *reduce* axes (summed
/// over). Tiles are rectangular sub-boxes of the spatial space, optionally
/// combined with a tile of the reduce space (the "reduction step" staged
/// into shared memory).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpSpec {
    /// `C[M,N] = Σ_k A[M,K]·B[K,N]` — spatial `[M,N]`, reduce `[K]`.
    Gemm { m: u64, k: u64, n: u64 },
    /// `y[M] = Σ_n A[M,N]·x[N]` — spatial `[M]`, reduce `[N]`.
    Gemv { m: u64, n: u64 },
    /// NCHW convolution, square kernel, padding chosen by the caller.
    /// Spatial `[N, OC, OH, OW]`, reduce `[IC, KH, KW]`.
    Conv2d {
        n: u64,
        c_in: u64,
        h: u64,
        w: u64,
        c_out: u64,
        kh: u64,
        kw: u64,
        stride: u64,
        pad: u64,
    },
    /// NCHW average pooling, window `f × f`.
    /// Spatial `[N, C, OH, OW]`, reduce `[F, F]`.
    AvgPool2d {
        n: u64,
        c: u64,
        h: u64,
        w: u64,
        f: u64,
        stride: u64,
    },
    /// Memory-bound pointwise op over `elems` elements with `num_inputs`
    /// operands and `ops_per_elem` arithmetic ops per element (ReLU = 1
    /// input / 1 op, residual-add = 2 inputs / 1 op, …).
    /// Spatial `[elems]`, no reduce axes.
    Elementwise {
        elems: u64,
        num_inputs: u32,
        ops_per_elem: u32,
    },
}

impl OpSpec {
    /// Convenience constructors (each panics unless [`OpSpec::validate`]
    /// accepts the result) ------------------------------------------------
    pub fn gemm(m: u64, k: u64, n: u64) -> Self {
        OpSpec::Gemm { m, k, n }.checked()
    }

    pub fn gemv(m: u64, n: u64) -> Self {
        OpSpec::Gemv { m, n }.checked()
    }

    /// `input = [n, c_in, h, w]`, `kernel = [c_out, c_in, kh, kw]`.
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d(
        n: u64,
        c_in: u64,
        h: u64,
        w: u64,
        c_out: u64,
        kh: u64,
        kw: u64,
        stride: u64,
        pad: u64,
    ) -> Self {
        OpSpec::Conv2d {
            n,
            c_in,
            h,
            w,
            c_out,
            kh,
            kw,
            stride,
            pad,
        }
        .checked()
    }

    pub fn avg_pool2d(n: u64, c: u64, h: u64, w: u64, f: u64, stride: u64) -> Self {
        OpSpec::AvgPool2d {
            n,
            c,
            h,
            w,
            f,
            stride,
        }
        .checked()
    }

    pub fn elementwise(elems: u64, num_inputs: u32, ops_per_elem: u32) -> Self {
        OpSpec::Elementwise {
            elems,
            num_inputs,
            ops_per_elem,
        }
        .checked()
    }

    fn checked(self) -> Self {
        if let Err(why) = self.validate() {
            panic!("{why}");
        }
        self
    }

    /// Whether the shape is one the cost model can handle: every extent
    /// positive, the conv kernel and pool window within the (padded)
    /// input, and an elementwise op with 1 to [`Extents::MAX`] inputs.
    /// The constructors assert it; every operator that arrives from
    /// outside the process (a wire frame, a store record, a CLI argument)
    /// must pass it before anything costs a tile of it.
    pub fn validate(&self) -> Result<(), String> {
        let padded = |x: u64, pad: u64| x.saturating_add(pad.saturating_mul(2));
        let why = match *self {
            OpSpec::Gemm { m, k, n } if m == 0 || k == 0 || n == 0 => "GEMM dims must be positive",
            OpSpec::Gemv { m, n } if m == 0 || n == 0 => "GEMV dims must be positive",
            OpSpec::Conv2d {
                n,
                c_in,
                h,
                w,
                c_out,
                ..
            } if [n, c_in, h, w, c_out].contains(&0) => "conv dims must be positive",
            OpSpec::Conv2d { kh, kw, stride, .. } if [kh, kw, stride].contains(&0) => {
                "kernel/stride must be positive"
            }
            OpSpec::Conv2d {
                h, w, kh, kw, pad, ..
            } if padded(h, pad) < kh || padded(w, pad) < kw => "kernel larger than padded input",
            OpSpec::AvgPool2d {
                n,
                c,
                h,
                w,
                f,
                stride,
            } if [n, c, f, stride].contains(&0) || h < f || w < f => {
                "pool dims must be positive and the window must fit the input"
            }
            OpSpec::Elementwise {
                elems, num_inputs, ..
            } if elems == 0 || num_inputs == 0 || num_inputs as usize > Extents::MAX => {
                "elementwise needs elements and 1 to 4 inputs"
            }
            _ => return Ok(()),
        };
        Err(format!("{}: {why}", self.label()))
    }

    /// Class of this operator.
    pub fn class(&self) -> OpClass {
        match self {
            OpSpec::Gemm { .. } => OpClass::Gemm,
            OpSpec::Gemv { .. } => OpClass::Gemv,
            OpSpec::Conv2d { .. } => OpClass::Conv2d,
            OpSpec::AvgPool2d { .. } => OpClass::AvgPool2d,
            OpSpec::Elementwise { .. } => OpClass::Elementwise,
        }
    }

    /// Output height/width of a conv or pool.
    fn out_hw(h: u64, w: u64, kh: u64, kw: u64, stride: u64, pad: u64) -> (u64, u64) {
        (
            (h + 2 * pad - kh) / stride + 1,
            (w + 2 * pad - kw) / stride + 1,
        )
    }

    /// Extents of the spatial axes (each output element ↔ one point here).
    #[inline]
    pub fn spatial_extents(&self) -> Extents {
        match *self {
            OpSpec::Gemm { m, n, .. } => [m, n].into(),
            OpSpec::Gemv { m, .. } => [m].into(),
            OpSpec::Conv2d {
                n,
                h,
                w,
                c_out,
                kh,
                kw,
                stride,
                pad,
                ..
            } => {
                let (oh, ow) = Self::out_hw(h, w, kh, kw, stride, pad);
                [n, c_out, oh, ow].into()
            }
            OpSpec::AvgPool2d {
                n,
                c,
                h,
                w,
                f,
                stride,
            } => {
                let (oh, ow) = Self::out_hw(h, w, f, f, stride, 0);
                [n, c, oh, ow].into()
            }
            OpSpec::Elementwise { elems, .. } => [elems].into(),
        }
    }

    /// Extents of the reduce axes (possibly empty).
    #[inline]
    pub fn reduce_extents(&self) -> Extents {
        match *self {
            OpSpec::Gemm { k, .. } => [k].into(),
            OpSpec::Gemv { n, .. } => [n].into(),
            OpSpec::Conv2d { c_in, kh, kw, .. } => [c_in, kh, kw].into(),
            OpSpec::AvgPool2d { f, .. } => [f, f].into(),
            OpSpec::Elementwise { .. } => Extents::default(),
        }
    }

    /// Axis names for display / codegen.
    pub fn spatial_names(&self) -> Vec<&'static str> {
        match self {
            OpSpec::Gemm { .. } => vec!["m", "n"],
            OpSpec::Gemv { .. } => vec!["m"],
            OpSpec::Conv2d { .. } => vec!["nb", "oc", "oh", "ow"],
            OpSpec::AvgPool2d { .. } => vec!["nb", "c", "oh", "ow"],
            OpSpec::Elementwise { .. } => vec!["i"],
        }
    }

    /// Reduce-axis names.
    pub fn reduce_names(&self) -> Vec<&'static str> {
        match self {
            OpSpec::Gemm { .. } => vec!["k"],
            OpSpec::Gemv { .. } => vec!["k"],
            OpSpec::Conv2d { .. } => vec!["ic", "kh", "kw"],
            OpSpec::AvgPool2d { .. } => vec!["fh", "fw"],
            OpSpec::Elementwise { .. } => vec![],
        }
    }

    /// What every operand reads per iteration point — inputs in kernel
    /// parameter order, then the output (one identity term per spatial
    /// axis). Iteration axes are numbered spatial first, then reduce.
    pub fn accesses(&self) -> Vec<Access> {
        let (sp, rd) = (self.spatial_extents(), self.reduce_extents());
        let extent = [&sp[..], &rd[..]].concat();
        let s = sp.len();
        let dim = |terms: &[(usize, u64)], offset: i64, extent: u64| DimAccess {
            terms: terms.to_vec(),
            offset,
            extent,
        };
        // A tensor dimension indexed by one axis, and one indexed by the
        // strided window `stride·x[out] + x[tap] − pad` into `len` elements.
        let v = |axis: usize| dim(&[(axis, 1)], 0, extent[axis]);
        let win =
            |out, tap, stride, pad: u64, len| dim(&[(out, stride), (tap, 1)], -(pad as i64), len);
        let t = |name: &str, dims: Vec<DimAccess>| Access {
            name: name.to_string(),
            dims,
        };
        let out = |name: &str| t(name, (0..s).map(v).collect());
        match *self {
            OpSpec::Gemm { .. } => {
                vec![t("A", vec![v(0), v(2)]), t("B", vec![v(2), v(1)]), out("C")]
            }
            OpSpec::Gemv { .. } => vec![t("A", vec![v(0), v(1)]), t("x", vec![v(1)]), out("y")],
            OpSpec::Conv2d {
                h, w, stride, pad, ..
            } => {
                let (ih, iw) = (win(2, 5, stride, pad, h), win(3, 6, stride, pad, w));
                let input = t("I", vec![v(0), v(4), ih, iw]);
                vec![input, t("K", vec![v(1), v(4), v(5), v(6)]), out("O")]
            }
            OpSpec::AvgPool2d { h, w, stride, .. } => {
                let (ih, iw) = (win(2, 4, stride, 0, h), win(3, 5, stride, 0, w));
                vec![t("I", vec![v(0), v(1), ih, iw]), out("O")]
            }
            OpSpec::Elementwise { num_inputs, .. } => {
                let inputs = (0..num_inputs).map(|i| t(&format!("X{i}"), vec![v(0)]));
                inputs.chain([out("O")]).collect()
            }
        }
    }

    /// How one iteration point's operand values combine.
    pub fn combine(&self) -> Combine {
        match self {
            OpSpec::AvgPool2d { .. } | OpSpec::Elementwise { .. } => Combine::Sum,
            _ => Combine::Product,
        }
    }

    /// The finished accumulator is divided by this: pool's window size,
    /// 1 for every other class.
    pub fn divisor(&self) -> u64 {
        match *self {
            OpSpec::AvgPool2d { f, .. } => f * f,
            _ => 1,
        }
    }

    /// Total floating-point operations (multiply-add counted as 2).
    pub fn flops(&self) -> f64 {
        match *self {
            OpSpec::Gemm { m, k, n } => 2.0 * m as f64 * k as f64 * n as f64,
            OpSpec::Gemv { m, n } => 2.0 * m as f64 * n as f64,
            OpSpec::Conv2d {
                n,
                c_in,
                c_out,
                kh,
                kw,
                ..
            } => {
                let sp = self.spatial_extents();
                let (oh, ow) = (sp[2], sp[3]);
                2.0 * (n * c_out * oh * ow * c_in * kh * kw) as f64
            }
            OpSpec::AvgPool2d { n, c, f, .. } => {
                let sp = self.spatial_extents();
                let (oh, ow) = (sp[2], sp[3]);
                // f*f additions + 1 multiply per output element.
                (n * c * oh * ow) as f64 * (f * f + 1) as f64
            }
            OpSpec::Elementwise {
                elems,
                ops_per_elem,
                ..
            } => elems as f64 * ops_per_elem as f64,
        }
    }

    /// Elements of the full output tensor.
    pub fn output_elems(&self) -> u64 {
        self.spatial_extents().iter().product()
    }

    /// Bytes moved if every tensor (inputs + output) is touched exactly once
    /// — the compulsory-traffic lower bound used by the L2-hit model. A
    /// whole tensor is the footprint of the full-space "tile" (conv/pool
    /// halos included).
    pub fn compulsory_bytes(&self) -> u64 {
        let fp = self.tile_footprint(&self.spatial_extents(), &self.reduce_extents());
        (fp.inputs.iter().sum::<u64>() + fp.output) * DTYPE_BYTES
    }

    /// Footprint of one tile.
    ///
    /// `sp_tile` has one entry per spatial axis, `rd_tile` one per reduce
    /// axis; both are clamped to the axis extents.
    pub fn tile_footprint(&self, sp_tile: &[u64], rd_tile: &[u64]) -> TileFootprint {
        let (sp_ext, rd_ext) = (self.spatial_extents(), self.reduce_extents());
        assert_eq!(sp_tile.len(), sp_ext.len(), "spatial tile rank mismatch");
        assert_eq!(rd_tile.len(), rd_ext.len(), "reduce tile rank mismatch");
        self.clamped_footprint(&clamp_tile(sp_tile, &sp_ext), &clamp_tile(rd_tile, &rd_ext))
    }

    /// [`OpSpec::tile_footprint`] of tiles already within `[1, extent]`
    /// per axis ([`clamp_tile`]), for a caller that holds the extents.
    #[inline]
    pub fn clamped_footprint(&self, sp: &[u64], rd: &[u64]) -> TileFootprint {
        self.footprint_at(|i| sp[i], |j| rd[j])
    }

    /// [`OpSpec::clamped_footprint`] of the tile whose spatial axis `i` is
    /// `sp(i)` and reduce axis `j` is `rd(j)`, read one axis at a time, so
    /// a caller that changes one axis of a tile need not build the changed
    /// vector. Conv/pool input regions include the stride/halo expansion:
    /// `in_extent = (out_tile − 1)·stride + k_tile`.
    #[inline(always)]
    pub fn footprint_at(
        &self,
        sp: impl Fn(usize) -> u64,
        rd: impl Fn(usize) -> u64,
    ) -> TileFootprint {
        let (inputs, output, rows) = match *self {
            // A is [M,K] row-major → rows of Tk; B is [K,N] → rows of Tn.
            OpSpec::Gemm { .. } => {
                let (tm, tn, tk) = (sp(0), sp(1), rd(0));
                ([tm * tk, tk * tn].into(), tm * tn, [tk, tn].into())
            }
            // A rows of Tk; x is a contiguous Tk run.
            OpSpec::Gemv { .. } => {
                let (tm, tk) = (sp(0), rd(0));
                ([tm * tk, tk].into(), tm, [tk, tk].into())
            }
            OpSpec::Conv2d {
                stride, h, w, pad, ..
            } => {
                let (tn, toc, toh, tow) = (sp(0), sp(1), sp(2), sp(3));
                let (tic, tkh, tkw) = (rd(0), rd(1), rd(2));
                let ih = ((toh - 1) * stride + tkh).min(h + 2 * pad);
                let iw = ((tow - 1) * stride + tkw).min(w + 2 * pad);
                (
                    [tn * tic * ih * iw, toc * tic * tkh * tkw].into(),
                    tn * toc * toh * tow,
                    [iw, tkw].into(),
                )
            }
            OpSpec::AvgPool2d { stride, h, w, .. } => {
                let (tn, tc, toh, tow) = (sp(0), sp(1), sp(2), sp(3));
                let (tfh, tfw) = (rd(0), rd(1));
                let ih = ((toh - 1) * stride + tfh).min(h);
                let iw = ((tow - 1) * stride + tfw).min(w);
                ([tn * tc * ih * iw].into(), tn * tc * toh * tow, [iw].into())
            }
            OpSpec::Elementwise { num_inputs, .. } => {
                let each: Extents = (0..num_inputs).map(|_| sp(0)).collect();
                (each, sp(0), each)
            }
        };
        TileFootprint {
            inputs,
            output,
            rows,
        }
    }

    /// Arithmetic intensity in FLOPs per byte of compulsory traffic.
    pub fn arithmetic_intensity(&self) -> f64 {
        self.flops() / self.compulsory_bytes() as f64
    }

    /// Compact display string, e.g. `GEMM[8192,8192,8192]` (the
    /// [`Display`](fmt::Display) text).
    pub fn label(&self) -> String {
        self.to_string()
    }
}

/// The compact label, e.g. `GEMM[8192,8192,8192]`. It leaves out a conv's
/// padding and an elementwise op's arity.
impl fmt::Display for OpSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            OpSpec::Gemm { m, k, n } => write!(f, "GEMM[{m},{k},{n}]"),
            OpSpec::Gemv { m, n } => write!(f, "GEMV[{m},{n}]"),
            OpSpec::Conv2d {
                n,
                c_in,
                h,
                w,
                c_out,
                kh,
                kw,
                stride,
                ..
            } => write!(
                f,
                "Conv2d[I={n}x{c_in}x{h}x{w},K={c_out}x{c_in}x{kh}x{kw},S={stride}]"
            ),
            OpSpec::AvgPool2d {
                n,
                c,
                h,
                w,
                f: window,
                stride,
            } => write!(f, "AvgPool2d[I={n}x{c}x{h}x{w},F={window},S={stride}]"),
            OpSpec::Elementwise { elems, .. } => write!(f, "Elementwise[{elems}]"),
        }
    }
}

/// `tile` clamped per axis into `[1, extent]` (zip semantics: the shorter
/// of the two sets the length).
#[inline]
pub fn clamp_tile(tile: &[u64], extents: &[u64]) -> Extents {
    tile.iter()
        .zip(extents)
        .map(|(&t, &e)| t.clamp(1, e))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_iteration_space() {
        let op = OpSpec::gemm(128, 64, 256);
        assert_eq!(*op.spatial_extents(), [128, 256]);
        assert_eq!(*op.reduce_extents(), [64]);
        assert_eq!(op.flops(), 2.0 * 128.0 * 64.0 * 256.0);
        assert_eq!(op.output_elems(), 128 * 256);
    }

    #[test]
    fn metric_keys_cover_the_four_observability_classes() {
        assert_eq!(OpClass::Gemm.metric_key(), "matmul");
        assert_eq!(OpClass::Gemv.metric_key(), "matmul");
        assert_eq!(OpClass::Conv2d.metric_key(), "conv");
        assert_eq!(OpClass::AvgPool2d.metric_key(), "reduce");
        assert_eq!(OpClass::Elementwise.metric_key(), "elementwise");
        // Prometheus-name-safe: lowercase snake fragments only.
        for c in [
            OpClass::Gemm,
            OpClass::Gemv,
            OpClass::Conv2d,
            OpClass::AvgPool2d,
            OpClass::Elementwise,
        ] {
            assert!(c
                .metric_key()
                .chars()
                .all(|ch| ch.is_ascii_lowercase() || ch == '_'));
        }
    }

    #[test]
    fn gemm_tile_footprint_matches_hand_count() {
        let op = OpSpec::gemm(128, 64, 256);
        let fp = op.tile_footprint(&[32, 16], &[8]);
        assert_eq!(*fp.inputs, [32 * 8, 8 * 16]);
        assert_eq!(fp.output, 32 * 16);
        // A streams rows of Tk, B rows of Tn.
        assert_eq!(*fp.rows, [8, 16]);
    }

    #[test]
    fn conv_output_shape_and_flops() {
        // Paper's C1: I=[128,256,30,30], K=[256,256,3,3], S=2.
        // With pad 0: OH = OW = (30-3)/2+1 = 14.
        let op = OpSpec::conv2d(128, 256, 30, 30, 256, 3, 3, 2, 0);
        assert_eq!(*op.spatial_extents(), [128, 256, 14, 14]);
        assert_eq!(*op.reduce_extents(), [256, 3, 3]);
        let expect = 2.0 * (128u64 * 256 * 14 * 14 * 256 * 3 * 3) as f64;
        assert_eq!(op.flops(), expect);
    }

    #[test]
    fn conv_halo_footprint() {
        let op = OpSpec::conv2d(1, 16, 32, 32, 8, 3, 3, 1, 0);
        // Output tile 4x4 with full 3x3 kernel tile needs (4-1)*1+3 = 6x6 input.
        let fp = op.tile_footprint(&[1, 8, 4, 4], &[16, 3, 3]);
        assert_eq!(fp.inputs[0], 16 * 6 * 6);
        assert_eq!(fp.inputs[1], 8 * 16 * 3 * 3);
        assert_eq!(fp.output, 8 * 16);
    }

    #[test]
    fn strided_conv_halo() {
        let op = OpSpec::conv2d(1, 4, 64, 64, 4, 3, 3, 2, 0);
        // Output tile 8 wide at stride 2: (8-1)*2+3 = 17 input columns.
        let fp = op.tile_footprint(&[1, 4, 8, 8], &[4, 3, 3]);
        assert_eq!(fp.inputs[0], 4 * 17 * 17);
    }

    #[test]
    fn pool_footprint_has_no_weights() {
        let op = OpSpec::avg_pool2d(16, 48, 48, 48, 2, 2);
        assert_eq!(op.accesses().len(), 2); // I and O
        let fp = op.tile_footprint(&[1, 8, 4, 4], &[2, 2]);
        // (4-1)*2+2 = 8 input rows/cols.
        assert_eq!(fp.inputs[0], 8 * 8 * 8);
    }

    #[test]
    fn gemv_space() {
        let op = OpSpec::gemv(16384, 8192);
        assert_eq!(*op.spatial_extents(), [16384]);
        assert_eq!(*op.reduce_extents(), [8192]);
        assert_eq!(op.flops(), 2.0 * 16384.0 * 8192.0);
    }

    #[test]
    fn elementwise_has_no_reduce() {
        let op = OpSpec::elementwise(1 << 20, 2, 1);
        assert!(op.reduce_extents().is_empty());
        let fp = op.tile_footprint(&[1024], &[]);
        assert_eq!(*fp.inputs, [1024, 1024]);
    }

    #[test]
    fn footprint_clamps_oversized_tiles() {
        let op = OpSpec::gemm(16, 16, 16);
        let fp = op.tile_footprint(&[1000, 1000], &[1000]);
        assert_eq!(*fp.inputs, [16 * 16, 16 * 16]);
        assert_eq!(fp.output, 16 * 16);
    }

    #[test]
    fn compulsory_bytes_counts_each_tensor_once() {
        let op = OpSpec::gemm(8, 4, 2);
        // A: 32, B: 8, C: 16 elems → 56 * 4 bytes.
        assert_eq!(op.compulsory_bytes(), 56 * 4);
    }

    #[test]
    fn gemm_intensity_grows_with_size() {
        let small = OpSpec::gemm(64, 64, 64).arithmetic_intensity();
        let big = OpSpec::gemm(4096, 4096, 4096).arithmetic_intensity();
        assert!(big > 10.0 * small);
    }

    #[test]
    #[should_panic]
    fn zero_dim_rejected() {
        let _ = OpSpec::gemm(0, 4, 4);
    }

    #[test]
    fn validate_mirrors_the_constructors_and_bounds_elementwise_inputs() {
        assert_eq!(OpSpec::elementwise(8, 4, 1).validate(), Ok(()));
        let bad = [
            OpSpec::Gemm { m: 4, k: 0, n: 4 },
            OpSpec::Gemv { m: 0, n: 4 },
            OpSpec::Conv2d {
                n: 1,
                c_in: 1,
                h: 2,
                w: 8,
                c_out: 1,
                kh: 3,
                kw: 3,
                stride: 1,
                pad: 0,
            },
            OpSpec::AvgPool2d {
                n: 1,
                c: 1,
                h: 4,
                w: 4,
                f: 2,
                stride: 0,
            },
            OpSpec::Elementwise {
                elems: 8,
                num_inputs: 0,
                ops_per_elem: 1,
            },
            OpSpec::Elementwise {
                elems: 8,
                num_inputs: Extents::MAX as u32 + 1,
                ops_per_elem: 1,
            },
        ];
        for op in bad {
            assert!(op.validate().is_err(), "{op:?}");
        }
    }

    #[test]
    #[should_panic(expected = "1 to 4 inputs")]
    fn elementwise_constructor_bounds_its_inputs() {
        let _ = OpSpec::elementwise(8, 5, 1);
    }

    #[test]
    fn extents_serialize_as_a_plain_array_and_refuse_longer_ones() {
        let e: Extents = [4, 16, 16, 8].into();
        assert_eq!(e.to_value(), vec![4u64, 16, 16, 8].to_value());
        assert_eq!(Extents::deserialize(&e.to_value()), Ok(e));
        let long = vec![1u64; Extents::MAX + 1].to_value();
        assert!(Extents::deserialize(&long).is_err());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(OpSpec::gemm(1, 2, 3).label(), "GEMM[1,2,3]");
        assert_eq!(OpSpec::gemv(4, 5).label(), "GEMV[4,5]");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_op() -> impl Strategy<Value = OpSpec> {
        prop_oneof![
            (1u64..500, 1u64..500, 1u64..500).prop_map(|(m, k, n)| OpSpec::gemm(m, k, n)),
            (1u64..500, 1u64..500).prop_map(|(m, n)| OpSpec::gemv(m, n)),
            (
                1u64..4,
                1u64..16,
                4u64..40,
                4u64..40,
                1u64..16,
                1u64..4,
                1u64..3,
                0u64..2
            )
                .prop_map(|(n, ci, h, w, co, k, s, p)| {
                    let k = k.min(h).min(w);
                    OpSpec::conv2d(n, ci, h, w, co, k, k, s, p)
                }),
            (1u64..4, 1u64..16, 4u64..40, 4u64..40, 1u64..4, 1u64..3).prop_map(
                |(n, c, h, w, f, s)| {
                    let f = f.min(h).min(w);
                    OpSpec::avg_pool2d(n, c, h, w, f, s)
                }
            ),
        ]
    }

    proptest! {
        /// Footprints are monotone in the tile: growing any tile dimension
        /// never shrinks any operand's footprint.
        #[test]
        fn footprint_monotone_in_tiles(op in arb_op(), grow_dim in any::<u8>()) {
            let sp: Vec<u64> = op.spatial_extents().iter().map(|_| 2).collect();
            let rd: Vec<u64> = op.reduce_extents().iter().map(|_| 2).collect();
            let base = op.tile_footprint(&sp, &rd);
            let mut sp2 = sp.clone();
            let d = grow_dim as usize % sp2.len();
            sp2[d] *= 2;
            let grown = op.tile_footprint(&sp2, &rd);
            for (a, b) in base.inputs.iter().zip(&grown.inputs) {
                prop_assert!(b >= a);
            }
            prop_assert!(grown.output >= base.output);
        }

        /// Full-space tile covers each tensor exactly: the footprint of the
        /// whole-extent tile is every operand's whole (zero-padded) box in
        /// the access map, which compulsory traffic charges once.
        #[test]
        fn full_tile_footprint_is_whole_tensor(op in arb_op()) {
            let (sp, rd) = (op.spatial_extents(), op.reduce_extents());
            let fp = op.tile_footprint(&sp, &rd);
            let full = [&sp[..], &rd[..]].concat();
            let boxes: Vec<u64> =
                op.accesses().iter().map(|a| a.tile_box(&full).iter().product()).collect();
            let (out, ins) = boxes.split_last().unwrap();
            prop_assert_eq!(fp.output, op.output_elems());
            prop_assert_eq!(*out, fp.output);
            prop_assert_eq!(ins, &fp.inputs[..]);
            let elems = fp.inputs.iter().sum::<u64>() + fp.output;
            prop_assert_eq!(op.compulsory_bytes(), elems * DTYPE_BYTES);
        }

        /// Tile counts: tile count × tile volume ≥ the space (the cost
        /// context's efficiency, space / covered, is pinned in the
        /// integration tests' `policy_prop`).
        #[test]
        fn tile_cover_accounting(op in arb_op(), t0 in 1u64..64, t1 in 1u64..64) {
            let sp_ext = op.spatial_extents();
            let mut tile: Vec<u64> = sp_ext.iter().map(|_| t0).collect();
            if tile.len() > 1 { tile[1] = t1; }
            let clamped: Vec<u64> = tile.iter().zip(sp_ext.iter()).map(|(&t, &e)| t.min(e)).collect();
            let covered: u64 = sp_ext
                .iter()
                .zip(&clamped)
                .map(|(&e, &t)| e.div_ceil(t) * t)
                .product();
            let space: u64 = sp_ext.iter().product();
            prop_assert!(covered >= space);
        }

        /// Row lengths never exceed the per-operand footprint.
        #[test]
        fn rows_bounded_by_footprint(op in arb_op()) {
            let sp: Vec<u64> = op.spatial_extents().iter().map(|_| 4).collect();
            let rd: Vec<u64> = op.reduce_extents().iter().map(|_| 4).collect();
            let fp = op.tile_footprint(&sp, &rd);
            for (r, f) in fp.rows.iter().zip(&fp.inputs) {
                prop_assert!(r <= f, "row {} > footprint {}", r, f);
            }
        }

        /// The access map agrees with the cost model: for every suite
        /// operator and power-of-two tiles within its extents, each input's
        /// bounding box is `tile_footprint(..).inputs` and its innermost
        /// run is `tile_footprint(..).rows`.
        #[test]
        fn access_map_matches_footprint_and_rows(row in 0usize..32, shift in 0u32..8) {
            let op = crate::suite::benchmark_suite()[row].op.clone();
            let ext = [&op.spatial_extents()[..], &op.reduce_extents()[..]].concat();
            let tile: Vec<u64> = ext
                .iter()
                .enumerate()
                .map(|(a, &e)| 1 << ((shift + a as u32) % 8).min(e.ilog2()))
                .collect();
            let (sp, rd) = tile.split_at(op.spatial_extents().len());
            let boxes: Vec<Vec<u64>> = op.accesses().iter().map(|a| a.tile_box(&tile)).collect();
            let (out, ins) = boxes.split_last().unwrap();
            let fp = op.tile_footprint(sp, rd);
            let volumes: Vec<u64> = ins.iter().map(|b| b.iter().product()).collect();
            prop_assert_eq!(&volumes[..], &fp.inputs[..]);
            prop_assert_eq!(out.iter().product::<u64>(), fp.output);
            let rows: Vec<u64> = ins.iter().map(|b| *b.last().unwrap()).collect();
            prop_assert_eq!(&rows[..], &fp.rows[..]);
        }

        /// FLOPs scale linearly in every extent for GEMM.
        #[test]
        fn gemm_flops_linear(m in 1u64..200, k in 1u64..200, n in 1u64..200) {
            let f1 = OpSpec::gemm(m, k, n).flops();
            let f2 = OpSpec::gemm(2 * m, k, n).flops();
            prop_assert!((f2 / f1 - 2.0).abs() < 1e-9);
        }
    }
}
