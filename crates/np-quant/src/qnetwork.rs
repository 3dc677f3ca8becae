//! The fully-quantized network representation and its integer executor.

use crate::calibrate::calibrate;
use crate::fold::fold_batchnorm;
use crate::kernels::{
    qavg_pool2d, qconv2d_reference, qdepthwise_conv2d_reference, qlinear, qmax_pool2d,
    QConvGeometry,
};
use crate::microkernel::{kernel_isa, KernelIsa};
use crate::program::{QScratch, QuantizedProgram};
use crate::qparams::QuantParams;
use crate::requant::FixedMultiplier;
use np_nn::layers::{
    AvgPool2d, Conv2d, DepthwiseConv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d, Relu,
};
use np_nn::{LayerKind, Sequential};
use np_tensor::parallel::Pool;
use np_tensor::Tensor;

/// One operator of a quantized network.
#[derive(Debug, Clone)]
pub(crate) enum QLayer {
    Conv {
        geo: QConvGeometry,
        weight: Vec<i8>,
        bias: Vec<i32>,
        mults: Vec<FixedMultiplier>,
        out: QuantParams,
        relu: bool,
    },
    Depthwise {
        channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        weight: Vec<i8>,
        bias: Vec<i32>,
        mults: Vec<FixedMultiplier>,
        out: QuantParams,
        relu: bool,
    },
    Linear {
        out_features: usize,
        weight: Vec<i8>,
        bias: Vec<i32>,
        mults: Vec<FixedMultiplier>,
        out: QuantParams,
        relu: bool,
    },
    MaxPool {
        kernel: usize,
        stride: usize,
    },
    AvgPool {
        kernel: usize,
        stride: usize,
    },
    GlobalAvgPool,
    /// Standalone ReLU (when not fused into a producer): clamps at the
    /// zero point without changing parameters.
    Relu,
    Flatten,
}

/// An int8 network produced by [`QuantizedNetwork::quantize`], executable
/// without any floating-point arithmetic between input quantization and
/// output dequantization.
#[derive(Debug, Clone)]
pub struct QuantizedNetwork {
    name: String,
    input_params: QuantParams,
    output_params: QuantParams,
    layers: Vec<QLayer>,
}

impl QuantizedNetwork {
    /// Folds batch norm, calibrates on `calib`, and converts `model` to a
    /// fully-int8 network.
    ///
    /// ReLU layers that directly follow a conv / depthwise / linear layer
    /// are fused into the producer's requantization clamp, as DORY does.
    ///
    /// # Panics
    ///
    /// Panics if the model contains a layer kind that has no integer
    /// lowering, or if `calib` is empty.
    pub fn quantize(model: &Sequential, calib: &Tensor) -> QuantizedNetwork {
        let mut folded = fold_batchnorm(model);
        let ranges = calibrate(&mut folded, calib);

        let layers = folded.layers();
        let mut qlayers = Vec::with_capacity(layers.len());
        let mut in_params = ranges.input;
        let mut i = 0;
        while i < layers.len() {
            let any = layers[i].as_any();
            // Fuse a directly-following ReLU into weighted producers.
            let next_is_relu = i + 1 < layers.len() && layers[i + 1].as_any().is::<Relu>();

            if let Some(conv) = any.downcast_ref::<Conv2d>() {
                let out_idx = if next_is_relu { i + 1 } else { i };
                let out = ranges.outputs[out_idx];
                let (weight, bias, mults) =
                    quantize_weights(conv.weight(), conv.bias(), in_params, out);
                let wd = conv.weight().shape();
                let (desc, _) = layers[i].describe((wd[1], 64, 64));
                qlayers.push(QLayer::Conv {
                    geo: QConvGeometry {
                        in_channels: wd[1],
                        out_channels: wd[0],
                        kernel: wd[2],
                        stride: desc.stride,
                        padding: desc.padding,
                    },
                    weight,
                    bias,
                    mults,
                    out,
                    relu: next_is_relu,
                });
                in_params = out;
                i = out_idx + 1;
            } else if let Some(dw) = any.downcast_ref::<DepthwiseConv2d>() {
                let out_idx = if next_is_relu { i + 1 } else { i };
                let out = ranges.outputs[out_idx];
                let (weight, bias, mults) =
                    quantize_weights(dw.weight(), dw.bias(), in_params, out);
                let wd = dw.weight().shape();
                let (desc, _) = layers[i].describe((wd[0], 64, 64));
                qlayers.push(QLayer::Depthwise {
                    channels: wd[0],
                    kernel: wd[2],
                    stride: desc.stride,
                    padding: desc.padding,
                    weight,
                    bias,
                    mults,
                    out,
                    relu: next_is_relu,
                });
                in_params = out;
                i = out_idx + 1;
            } else if let Some(lin) = any.downcast_ref::<Linear>() {
                let out_idx = if next_is_relu { i + 1 } else { i };
                let out = ranges.outputs[out_idx];
                let (weight, bias, mults) =
                    quantize_weights(lin.weight(), lin.bias(), in_params, out);
                qlayers.push(QLayer::Linear {
                    out_features: lin.weight().shape()[0],
                    weight,
                    bias,
                    mults,
                    out,
                    relu: next_is_relu,
                });
                in_params = out;
                i = out_idx + 1;
            } else if let Some(mp) = any.downcast_ref::<MaxPool2d>() {
                let (desc, _) = np_nn::Layer::describe(mp, (1, 64, 64));
                qlayers.push(QLayer::MaxPool {
                    kernel: desc.kernel,
                    stride: desc.stride,
                });
                i += 1;
            } else if let Some(ap) = any.downcast_ref::<AvgPool2d>() {
                let (desc, _) = np_nn::Layer::describe(ap, (1, 64, 64));
                qlayers.push(QLayer::AvgPool {
                    kernel: desc.kernel,
                    stride: desc.stride,
                });
                i += 1;
            } else if any.is::<GlobalAvgPool>() {
                qlayers.push(QLayer::GlobalAvgPool);
                i += 1;
            } else if any.is::<Relu>() {
                // Standalone ReLU: clamp at this tensor's zero point.
                qlayers.push(QLayer::Relu);
                i += 1;
            } else if any.is::<Flatten>() {
                qlayers.push(QLayer::Flatten);
                i += 1;
            } else {
                panic!("no integer lowering for layer `{}`", layers[i].name());
            }
        }

        QuantizedNetwork {
            name: model.name().to_string(),
            input_params: ranges.input,
            output_params: in_params,
            layers: qlayers,
        }
    }

    /// Network name (inherited from the float model).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The lowered operator sequence (for the program compiler).
    pub(crate) fn qlayers(&self) -> &[QLayer] {
        &self.layers
    }

    /// Compiles this network for a fixed input shape into a
    /// [`QuantizedProgram`]: weights pre-packed into im2col-ready panels
    /// in the process-wide [`kernel_isa`] format, linear biases
    /// zero-point-folded, and every intermediate assigned a static offset
    /// in one planned arena. The program's
    /// [`run_int_prepacked`](QuantizedProgram::run_int_prepacked)
    /// produces bit-identical outputs to [`Self::run_int`] without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if a filter is wider than its kernel's stack tile: a
    /// depthwise kernel above 45 (44 at stride 2), or, in the raw-i8
    /// format, a K×K conv kernel above 64. The other `compile*` entry
    /// points share the limits.
    pub fn compile(&self, chw: (usize, usize, usize)) -> QuantizedProgram {
        QuantizedProgram::compile_with(self, chw, 1, kernel_isa(), true)
    }

    /// [`Self::compile`] plus a cross-frame batch plan: the program also
    /// accepts up to `max_batch` (at least 1) frames per
    /// [`run_int_batched`](QuantizedProgram::run_int_batched) call,
    /// amortizing packed-weight traffic across the batch. The per-frame
    /// entries are unchanged.
    pub fn compile_batched(
        &self,
        chw: (usize, usize, usize),
        max_batch: usize,
    ) -> QuantizedProgram {
        QuantizedProgram::compile_with(self, chw, max_batch, kernel_isa(), true)
    }

    /// [`Self::compile`] with an explicit kernel isa (weight format)
    /// instead of the process-wide [`kernel_isa`] default — lets tests
    /// and benchmarks pin the i16 and raw-i8 conv formats side by side in
    /// one process regardless of `NP_ISA`.
    pub fn compile_for_isa(&self, chw: (usize, usize, usize), isa: KernelIsa) -> QuantizedProgram {
        QuantizedProgram::compile_with(self, chw, 1, isa, true)
    }

    /// [`Self::compile_batched`] with an explicit kernel isa; see
    /// [`Self::compile_for_isa`].
    pub fn compile_batched_for_isa(
        &self,
        chw: (usize, usize, usize),
        max_batch: usize,
        isa: KernelIsa,
    ) -> QuantizedProgram {
        QuantizedProgram::compile_with(self, chw, max_batch, isa, true)
    }

    /// [`Self::compile`] wrapped in an [`std::sync::Arc`] so many
    /// sessions (or threads) can execute the same packed weights without
    /// copying them. A `QuantizedProgram` holds no interior mutability —
    /// all per-run state lives in the caller's [`QScratch`] — so sharing
    /// one immutably is safe by construction.
    pub fn compile_shared(&self, chw: (usize, usize, usize)) -> std::sync::Arc<QuantizedProgram> {
        std::sync::Arc::new(self.compile(chw))
    }

    /// Quantization parameters of the network input.
    pub fn input_params(&self) -> QuantParams {
        self.input_params
    }

    /// Quantization parameters of the network output.
    pub fn output_params(&self) -> QuantParams {
        self.output_params
    }

    /// Total weight + bias bytes of the integer model (i8 weights, i32
    /// biases) — the deployable flash/L2 footprint of the parameters.
    pub fn weight_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                QLayer::Conv { weight, bias, .. }
                | QLayer::Depthwise { weight, bias, .. }
                | QLayer::Linear { weight, bias, .. } => weight.len() + 4 * bias.len(),
                _ => 0,
            })
            .sum()
    }

    /// Runs the integer network on a float NCHW batch: quantize → int8
    /// pipeline → dequantize. Runs on the global pool.
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank 4.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        self.forward_with(Pool::global(), input)
    }

    /// [`Self::forward`] on an explicit execution context.
    ///
    /// Compiles a program for the input's `(c, h, w)` once per call and
    /// runs every image through its
    /// [`forward_prepacked`](QuantizedProgram::forward_prepacked).
    /// A single image runs its kernels on `pool`; several images run
    /// chunk-parallel with serial kernels and one [`QScratch`] per chunk,
    /// so memory does not grow with the image count. Integer arithmetic
    /// is exact, so the result is independent of the partition either
    /// way. The per-call program registers no np-trace spans, so calling
    /// this in a loop does not grow a traced process's span registry (and
    /// its frames are not in trace reports).
    pub fn forward_with(&self, pool: Pool, input: &Tensor) -> Tensor {
        let d = input.shape();
        assert_eq!(d.len(), 4, "expected NCHW input");
        let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
        let per = c * h * w;
        let program = QuantizedProgram::compile_with(self, (c, h, w), 1, kernel_isa(), false);
        let out_dim = program.output_len();
        let mut out = vec![0.0f32; n * out_dim];
        // Fills `rows`, the outputs of the images from `first` on.
        let run = |item_pool: Pool, first: usize, rows: &mut [f32]| {
            let mut scratch = QScratch::for_program(&program);
            let frames = input.as_slice()[first * per..].chunks_exact(per);
            for (row, frame) in rows.chunks_mut(out_dim).zip(frames) {
                row.copy_from_slice(program.forward_prepacked(item_pool, &mut scratch, frame));
            }
        };
        if n > 1 {
            let chunk_len = pool.chunk_len_for(n, out_dim);
            pool.for_each_chunk(&mut out, chunk_len, |idx, rows| {
                run(Pool::serial(), idx * chunk_len / out_dim, rows)
            });
        } else {
            run(pool, 0, &mut out);
        }
        Tensor::from_vec(&[n, out_dim], out)
    }

    /// Runs the integer pipeline on an already-quantized CHW image,
    /// returning the raw i8 outputs and their shape.
    ///
    /// This is the scalar oracle the compiled programs are checked
    /// against: serial, one fresh `Vec` per layer, and built only from
    /// the reference kernels ([`qconv2d_reference`],
    /// [`qdepthwise_conv2d_reference`], [`qlinear`], [`qmax_pool2d`],
    /// [`qavg_pool2d`]) plus the inline global-average-pool, ReLU and
    /// flatten arms below. It shares no kernel with [`QuantizedProgram`],
    /// so a fast-path bug cannot hide in both.
    pub fn run_int(
        &self,
        input: &[i8],
        chw: (usize, usize, usize),
    ) -> (Vec<i8>, (usize, usize, usize)) {
        let (mut c, mut h, mut w) = chw;
        let mut x = input.to_vec();
        let mut zp = self.input_params.zero_point;
        for layer in &self.layers {
            match layer {
                QLayer::Conv {
                    geo,
                    weight,
                    bias,
                    mults,
                    out,
                    relu,
                } => {
                    x = qconv2d_reference(
                        &x,
                        h,
                        w,
                        zp,
                        *geo,
                        weight,
                        bias,
                        mults,
                        out.zero_point,
                        *relu,
                    );
                    let (oh, ow) = geo.out_hw(h, w);
                    c = geo.out_channels;
                    h = oh;
                    w = ow;
                    zp = out.zero_point;
                }
                QLayer::Depthwise {
                    channels,
                    kernel,
                    stride,
                    padding,
                    weight,
                    bias,
                    mults,
                    out,
                    relu,
                } => {
                    x = qdepthwise_conv2d_reference(
                        &x,
                        h,
                        w,
                        zp,
                        *channels,
                        *kernel,
                        *stride,
                        *padding,
                        weight,
                        bias,
                        mults,
                        out.zero_point,
                        *relu,
                    );
                    h = (h + 2 * padding - kernel) / stride + 1;
                    w = (w + 2 * padding - kernel) / stride + 1;
                    zp = out.zero_point;
                }
                QLayer::Linear {
                    out_features,
                    weight,
                    bias,
                    mults,
                    out,
                    relu,
                } => {
                    x = qlinear(
                        &x,
                        zp,
                        weight,
                        bias,
                        mults,
                        *out_features,
                        out.zero_point,
                        *relu,
                    );
                    c = *out_features;
                    h = 1;
                    w = 1;
                    zp = out.zero_point;
                }
                QLayer::MaxPool { kernel, stride } => {
                    x = qmax_pool2d(&x, c, h, w, *kernel, *stride);
                    h = (h - kernel) / stride + 1;
                    w = (w - kernel) / stride + 1;
                }
                QLayer::AvgPool { kernel, stride } => {
                    x = qavg_pool2d(&x, c, h, w, *kernel, *stride);
                    h = (h - kernel) / stride + 1;
                    w = (w - kernel) / stride + 1;
                }
                QLayer::GlobalAvgPool => {
                    // Exact rounded mean over each channel plane.
                    let div = (h * w) as i32;
                    let mut out = vec![0i8; c];
                    for (ci, o) in out.iter_mut().enumerate() {
                        let plane = &x[ci * h * w..(ci + 1) * h * w];
                        let sum: i32 = plane.iter().map(|&v| v as i32).sum();
                        let rounded = if sum >= 0 {
                            (sum + div / 2) / div
                        } else {
                            (sum - div / 2) / div
                        };
                        *o = rounded.clamp(-128, 127) as i8;
                    }
                    x = out;
                    h = 1;
                    w = 1;
                }
                QLayer::Relu => {
                    for v in &mut x {
                        if (*v as i32) < zp {
                            *v = zp.clamp(-128, 127) as i8;
                        }
                    }
                }
                QLayer::Flatten => {
                    c *= h * w;
                    h = 1;
                    w = 1;
                }
            }
        }
        (x, (c, h, w))
    }

    /// The kind sequence of the lowered network (for tests/debugging).
    pub fn kinds(&self) -> Vec<LayerKind> {
        self.layers
            .iter()
            .map(|l| match l {
                QLayer::Conv { .. } => LayerKind::Conv2d,
                QLayer::Depthwise { .. } => LayerKind::DepthwiseConv2d,
                QLayer::Linear { .. } => LayerKind::Linear,
                QLayer::MaxPool { .. } => LayerKind::MaxPool,
                QLayer::AvgPool { .. } | QLayer::GlobalAvgPool => LayerKind::AvgPool,
                QLayer::Relu => LayerKind::Activation,
                QLayer::Flatten => LayerKind::Reshape,
            })
            .collect()
    }
}

/// Quantizes a weight tensor per-output-channel symmetric, its bias to i32
/// at accumulator scale, and computes the per-channel requantization
/// multipliers.
fn quantize_weights(
    weight: &Tensor,
    bias: &Tensor,
    in_params: QuantParams,
    out_params: QuantParams,
) -> (Vec<i8>, Vec<i32>, Vec<FixedMultiplier>) {
    let c_out = weight.shape()[0];
    let per = weight.numel() / c_out;
    let wv = weight.as_slice();
    let mut wq = Vec::with_capacity(wv.len());
    let mut biases = Vec::with_capacity(c_out);
    let mut mults = Vec::with_capacity(c_out);
    for ci in 0..c_out {
        let chunk = &wv[ci * per..(ci + 1) * per];
        let absmax = chunk.iter().fold(0.0f32, |a, &b| a.max(b.abs()));
        let wp = QuantParams::symmetric(absmax);
        wq.extend(chunk.iter().map(|&x| wp.quantize(x)));
        let acc_scale = in_params.scale * wp.scale;
        biases.push((bias.as_slice()[ci] / acc_scale).round() as i32);
        mults.push(FixedMultiplier::from_real(acc_scale / out_params.scale));
    }
    (wq, biases, mults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_nn::init::{Initializer, SmallRng};
    use np_nn::layers::BatchNorm2d;

    fn frontnet_like(rng: &mut SmallRng) -> Sequential {
        Sequential::with_name(
            "mini-frontnet",
            vec![
                Box::new(Conv2d::new(1, 4, 3, 2, 1, Initializer::KaimingUniform, rng)),
                Box::new(BatchNorm2d::new(4)),
                Box::new(Relu::new()),
                Box::new(MaxPool2d::new(2, 2)),
                Box::new(Conv2d::new(4, 8, 3, 1, 1, Initializer::KaimingUniform, rng)),
                Box::new(Relu::new()),
                Box::new(Flatten::new()),
                Box::new(Linear::new(8 * 4 * 4, 4, Initializer::KaimingUniform, rng)),
            ],
        )
    }

    fn calib_batch(rng: &mut SmallRng, n: usize) -> Tensor {
        let data: Vec<f32> = (0..n * 16 * 16).map(|_| rng.uniform(-1.0, 1.0)).collect();
        Tensor::from_vec(&[n, 1, 16, 16], data)
    }

    #[test]
    fn quantized_output_tracks_float() {
        let mut rng = SmallRng::seed(10);
        let mut net = frontnet_like(&mut rng);
        // Train BN statistics briefly so folding is meaningful.
        for _ in 0..5 {
            let batch = calib_batch(&mut rng, 8);
            let _ = net.forward_train(&batch);
        }
        net.clear_caches();
        let calib = calib_batch(&mut rng, 16);
        let qnet = QuantizedNetwork::quantize(&net, &calib);

        let test = calib_batch(&mut rng, 4);
        let y_fp = fold_batchnorm(&net).forward(&test);
        let y_q = qnet.forward(&test);
        assert_eq!(y_fp.shape(), y_q.shape());
        // Quantization noise compounds through three layers of an untrained
        // random network; assert aggregate tracking: the int8 outputs must
        // explain the float outputs to within 15% of the output range.
        let range = y_fp.max() - y_fp.min();
        let mae = y_fp
            .sub(&y_q)
            .as_slice()
            .iter()
            .map(|d| d.abs())
            .sum::<f32>()
            / y_fp.numel() as f32;
        assert!(
            mae < 0.15 * range,
            "int8 output diverged: mae {mae}, float range {range}"
        );
    }

    #[test]
    fn relu_fusion_removes_relu_layers() {
        let mut rng = SmallRng::seed(11);
        let net = frontnet_like(&mut rng);
        let calib = calib_batch(&mut rng, 4);
        let qnet = QuantizedNetwork::quantize(&net, &calib);
        // conv(+bn+relu fused), maxpool, conv(+relu fused), flatten, linear
        let kinds = qnet.kinds();
        assert!(
            !kinds.contains(&LayerKind::Activation),
            "relu not fused: {kinds:?}"
        );
        assert!(!kinds.contains(&LayerKind::BatchNorm));
        assert_eq!(kinds.iter().filter(|k| **k == LayerKind::Conv2d).count(), 2);
    }

    #[test]
    fn weight_bytes_counts_params() {
        let mut rng = SmallRng::seed(12);
        let net = frontnet_like(&mut rng);
        let calib = calib_batch(&mut rng, 2);
        let qnet = QuantizedNetwork::quantize(&net, &calib);
        // conv1: 4*9 w + 4 b; conv2: 8*4*9 w + 8 b; linear: 4*128 w + 4 b
        let expect = (4 * 9 + 8 * 4 * 9 + 4 * 128) + 4 * (4 + 8 + 4);
        assert_eq!(qnet.weight_bytes(), expect);
    }

    #[test]
    fn forward_with_equals_dequantized_run_int_per_image() {
        let mut rng = SmallRng::seed(14);
        let net = frontnet_like(&mut rng);
        let calib = calib_batch(&mut rng, 4);
        let qnet = QuantizedNetwork::quantize(&net, &calib);
        let x = calib_batch(&mut rng, 5);
        let per = 16 * 16;
        let want: Vec<f32> = x
            .as_slice()
            .chunks_exact(per)
            .flat_map(|img| {
                let (yq, _) = qnet.run_int(&qnet.input_params().quantize_slice(img), (1, 16, 16));
                qnet.output_params().dequantize_slice(&yq)
            })
            .collect();
        for threads in [1, 2, 4] {
            let got = qnet.forward_with(Pool::new(threads), &x);
            assert_eq!(got.shape(), &[5, 4]);
            assert_eq!(got.as_slice(), &want[..], "{threads} threads");
            // A single image takes the kernels-on-`pool` path.
            let one = Tensor::from_vec(&[1, 1, 16, 16], x.as_slice()[..per].to_vec());
            let got = qnet.forward_with(Pool::new(threads), &one);
            assert_eq!(got.as_slice(), &want[..4], "one image, {threads} threads");
        }
    }

    #[test]
    fn int_pipeline_is_deterministic() {
        let mut rng = SmallRng::seed(13);
        let net = frontnet_like(&mut rng);
        let calib = calib_batch(&mut rng, 4);
        let qnet = QuantizedNetwork::quantize(&net, &calib);
        let x = calib_batch(&mut rng, 1);
        let a = qnet.forward(&x);
        let b = qnet.forward(&x);
        assert_eq!(a, b);
    }
}
