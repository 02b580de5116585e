//! The introspectable quantized network container.
//!
//! A [`QuantNet`] is a sequential chain like
//! [`flight_nn::Sequential`], but it keeps every layer as a concrete
//! [`NetLayer`] variant so the trainer, the storage model, the hardware
//! models and the integer compiler can walk them without downcasting.
//! One visitor, [`QuantNet::visit_quant_layers`], walks every quantized
//! conv and linear layer in network order (recursing into residual main
//! paths and shortcuts) and hands each out as a [`QuantLayerMut`], whose
//! [`into_weights`](QuantLayerMut::into_weights) reaches the shared
//! [`QuantWeights`] core.

use flight_nn::layers::{BatchNorm2d, Flatten, GlobalAvgPool, LeakyRelu, MaxPool2d};
use flight_nn::{Layer, Param};
use flight_tensor::Tensor;

use crate::layers::{ActQuant, QuantConv2d, QuantLinear, QuantWeights};

/// One layer of a quantized network: a closed set of typed variants, so
/// the integer compiler in `flight-kernels` lowers every layer from its
/// type (a batch norm's eval affine, a LeakyReLU's slope, a pool's
/// window) rather than from its name.
#[derive(Debug)]
pub enum NetLayer {
    /// A quantized convolution.
    Conv(QuantConv2d),
    /// A quantized fully connected layer.
    Linear(QuantLinear),
    /// A residual block whose convolutions are quantized.
    Residual(QuantResidualBlock),
    /// Batch normalization.
    BatchNorm2d(BatchNorm2d),
    /// LeakyReLU activation.
    LeakyRelu(LeakyRelu),
    /// Max pooling.
    MaxPool2d(MaxPool2d),
    /// Global average pooling.
    GlobalAvgPool(GlobalAvgPool),
    /// `[n, c, h, w]` → `[n, c·h·w]` ahead of a linear layer.
    Flatten(Flatten),
    /// Activation quantization.
    ActQuant(ActQuant),
}

impl NetLayer {
    /// The layer as a `flight_nn::Layer` trait object.
    pub fn as_layer_mut(&mut self) -> &mut dyn Layer {
        match self {
            NetLayer::Conv(c) => c,
            NetLayer::Linear(l) => l,
            NetLayer::Residual(r) => r,
            NetLayer::BatchNorm2d(l) => l,
            NetLayer::LeakyRelu(l) => l,
            NetLayer::MaxPool2d(l) => l,
            NetLayer::GlobalAvgPool(l) => l,
            NetLayer::Flatten(l) => l,
            NetLayer::ActQuant(l) => l,
        }
    }
}

/// `From` for the plain (non-quantized) layer types, which is what
/// [`QuantNet::push_plain`] accepts.
macro_rules! plain_layers {
    ($($ty:ident),*) => {$(
        impl From<$ty> for NetLayer {
            fn from(layer: $ty) -> Self {
                NetLayer::$ty(layer)
            }
        }
    )*};
}

plain_layers!(
    BatchNorm2d,
    LeakyRelu,
    MaxPool2d,
    GlobalAvgPool,
    Flatten,
    ActQuant
);

/// A quantized layer as [`QuantNet::visit_quant_layers`] hands it out.
pub enum QuantLayerMut<'a> {
    /// A quantized convolution.
    Conv(&'a mut QuantConv2d),
    /// A quantized fully connected layer.
    Linear(&'a mut QuantLinear),
}

impl<'a> QuantLayerMut<'a> {
    /// The layer's quantized-weight core.
    pub fn into_weights(self) -> &'a mut QuantWeights {
        match self {
            QuantLayerMut::Conv(c) => c.weights_mut(),
            QuantLayerMut::Linear(l) => l.weights_mut(),
        }
    }
}

/// A sequential quantized network.
///
/// # Example
///
/// ```
/// use flightnn::net::QuantNet;
/// use flightnn::layers::QuantConv2d;
/// use flightnn::QuantScheme;
/// use flight_nn::Layer;
/// use flight_tensor::{Tensor, TensorRng};
///
/// let mut rng = TensorRng::seed(0);
/// let mut net = QuantNet::new();
/// net.push_conv(QuantConv2d::new(&mut rng, &QuantScheme::l1(), 3, 8, 3, 1, 1));
/// let y = net.forward(&Tensor::zeros(&[1, 3, 8, 8]), false);
/// assert_eq!(y.dims(), &[1, 8, 8, 8]);
/// assert_eq!(net.conv_count(), 1);
/// ```
#[derive(Debug, Default)]
pub struct QuantNet {
    layers: Vec<NetLayer>,
}

impl QuantNet {
    /// Creates an empty network.
    pub fn new() -> Self {
        QuantNet { layers: Vec::new() }
    }

    /// Appends a plain (non-quantized) layer: a batch norm, LeakyReLU,
    /// pool, flatten or activation quantizer.
    pub fn push_plain(&mut self, layer: impl Into<NetLayer>) {
        self.layers.push(layer.into());
    }

    /// Appends a quantized convolution.
    pub fn push_conv(&mut self, conv: QuantConv2d) {
        self.layers.push(NetLayer::Conv(conv));
    }

    /// Appends a quantized linear layer.
    pub fn push_linear(&mut self, linear: QuantLinear) {
        self.layers.push(NetLayer::Linear(linear));
    }

    /// Appends a quantized residual block.
    pub fn push_residual(&mut self, block: QuantResidualBlock) {
        self.layers.push(NetLayer::Residual(block));
    }

    /// Number of layers (not counting inside residual blocks).
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Mutable access to the layer list (used by the integer inference
    /// compiler in `flight-kernels`).
    pub fn layers_mut(&mut self) -> &mut [NetLayer] {
        &mut self.layers
    }

    /// `true` when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Visits every quantized conv and linear layer in network order,
    /// recursing into residual blocks (main path, then shortcut).
    pub fn visit_quant_layers(&mut self, f: &mut dyn FnMut(QuantLayerMut<'_>)) {
        for layer in &mut self.layers {
            match layer {
                NetLayer::Conv(c) => f(QuantLayerMut::Conv(c)),
                NetLayer::Linear(l) => f(QuantLayerMut::Linear(l)),
                NetLayer::Residual(r) => {
                    r.main.visit_quant_layers(f);
                    if let Some(sc) = &mut r.shortcut {
                        sc.visit_quant_layers(f);
                    }
                }
                _ => {}
            }
        }
    }

    /// Visits every quantized convolution (the convs of
    /// [`QuantNet::visit_quant_layers`]).
    pub fn visit_quant_convs(&mut self, f: &mut dyn FnMut(&mut QuantConv2d)) {
        self.visit_quant_layers(&mut |layer| {
            if let QuantLayerMut::Conv(c) = layer {
                f(c)
            }
        });
    }

    /// Number of quantized convolutions (recursive).
    pub fn conv_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_quant_convs(&mut |_| n += 1);
        n
    }

    /// Per-filter shift counts of every quantized convolution, flattened
    /// in network order. Empty entries (Full/FixedPoint layers) are
    /// skipped.
    pub fn all_shift_counts(&mut self) -> Vec<usize> {
        let mut all = Vec::new();
        self.visit_quant_convs(&mut |c| all.extend(c.weights_mut().filter_shift_counts()));
        all
    }

    /// One-line-per-layer architecture summary.
    pub fn summary(&mut self) -> String {
        self.layers
            .iter_mut()
            .map(|l| l.as_layer_mut().name())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl Layer for QuantNet {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.as_layer_mut().forward(&x, train);
        }
        x
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.as_layer_mut().backward(&g);
        }
        g
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.as_layer_mut().visit_params(visitor);
        }
    }

    fn visit_state(&mut self, visitor: &mut dyn FnMut(&mut Tensor)) {
        for layer in &mut self.layers {
            layer.as_layer_mut().visit_state(visitor);
        }
    }

    fn name(&self) -> String {
        format!("quant_net[{}]", self.layers.len())
    }
}

/// A residual basic block whose convolutions are quantized.
///
/// Mirrors [`flight_nn::layers::ResidualBlock`] — main path
/// `qconv(3×3) → BN → LeakyReLU → qconv(3×3) → BN`, identity or
/// projection (`qconv(1×1)` + BN) shortcut, summed, then LeakyReLU.
pub struct QuantResidualBlock {
    main: QuantNet,
    shortcut: Option<QuantNet>,
    act: LeakyRelu,
}

impl QuantResidualBlock {
    /// Assembles a block from an already-built main path and optional
    /// shortcut (used by the config builder). The joining activation is
    /// the default LeakyReLU.
    pub fn from_parts(main: QuantNet, shortcut: Option<QuantNet>) -> Self {
        QuantResidualBlock {
            main,
            shortcut,
            act: LeakyRelu::default(),
        }
    }

    /// Like [`QuantResidualBlock::from_parts`], with an explicit slope
    /// for the LeakyReLU applied after the join.
    ///
    /// # Panics
    ///
    /// Panics if `slope` is negative or non-finite (see
    /// [`LeakyRelu::with_slope`]).
    pub fn from_parts_with_slope(main: QuantNet, shortcut: Option<QuantNet>, slope: f32) -> Self {
        QuantResidualBlock {
            main,
            shortcut,
            act: LeakyRelu::with_slope(slope),
        }
    }

    /// Slope of the LeakyReLU applied after the residual join. The
    /// integer-engine compiler reads this so the compiled block matches
    /// the float block exactly instead of assuming the default slope.
    pub fn activation_slope(&self) -> f32 {
        self.act.slope()
    }

    /// Whether the block has a projection shortcut.
    pub fn has_projection(&self) -> bool {
        self.shortcut.is_some()
    }

    /// Mutable access to the main path.
    pub fn main_mut(&mut self) -> &mut QuantNet {
        &mut self.main
    }

    /// Mutable access to the shortcut path, if any.
    pub fn shortcut_mut(&mut self) -> Option<&mut QuantNet> {
        self.shortcut.as_mut()
    }
}

impl std::fmt::Debug for QuantResidualBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "QuantResidualBlock(projection: {})",
            self.shortcut.is_some()
        )
    }
}

impl Layer for QuantResidualBlock {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let main_out = self.main.forward(input, train);
        let short_out = match &mut self.shortcut {
            Some(sc) => sc.forward(input, train),
            None => input.clone(),
        };
        let sum = &main_out + &short_out;
        self.act.forward(&sum, train)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.act.backward(grad_out);
        let g_main = self.main.backward(&g);
        let g_short = match &mut self.shortcut {
            Some(sc) => sc.backward(&g),
            None => g,
        };
        &g_main + &g_short
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.main.visit_params(visitor);
        if let Some(sc) = &mut self.shortcut {
            sc.visit_params(visitor);
        }
    }

    fn visit_state(&mut self, visitor: &mut dyn FnMut(&mut Tensor)) {
        self.main.visit_state(visitor);
        if let Some(sc) = &mut self.shortcut {
            sc.visit_state(visitor);
        }
    }

    fn name(&self) -> String {
        format!(
            "quant_residual_block(projection: {})",
            self.shortcut.is_some()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::QuantScheme;
    use flight_tensor::{uniform, TensorRng};

    fn tiny_net(scheme: &QuantScheme) -> QuantNet {
        let mut rng = TensorRng::seed(11);
        let mut net = QuantNet::new();
        net.push_conv(QuantConv2d::new(&mut rng, scheme, 2, 4, 3, 1, 1));
        net.push_plain(BatchNorm2d::new(4));
        net.push_plain(LeakyRelu::default());
        net.push_plain(Flatten::new());
        net.push_linear(QuantLinear::new(&mut rng, scheme, 4 * 16, 3));
        net
    }

    #[test]
    fn forward_backward_shapes() {
        let mut net = tiny_net(&QuantScheme::flight(1e-5));
        let x = Tensor::zeros(&[2, 2, 4, 4]);
        let y = net.forward(&x, true);
        assert_eq!(y.dims(), &[2, 3]);
        let dx = net.backward(&Tensor::ones(&[2, 3]));
        assert_eq!(dx.dims(), &[2, 2, 4, 4]);
    }

    #[test]
    fn visitors_find_quant_layers() {
        let mut net = tiny_net(&QuantScheme::l2());
        assert_eq!(net.conv_count(), 1);
        let mut kinds = Vec::new();
        net.visit_quant_layers(&mut |l| kinds.push(matches!(l, QuantLayerMut::Conv(_))));
        assert_eq!(kinds, vec![true, false], "conv, then linear");
        assert_eq!(net.all_shift_counts(), vec![2, 2, 2, 2]);
    }

    #[test]
    fn residual_block_recursion_is_visited() {
        let mut rng = TensorRng::seed(12);
        let scheme = QuantScheme::l1();
        let mut main = QuantNet::new();
        main.push_conv(QuantConv2d::new(&mut rng, &scheme, 4, 4, 3, 1, 1));
        main.push_plain(BatchNorm2d::new(4));
        let block = QuantResidualBlock::from_parts(main, None);
        assert_eq!(
            block.activation_slope(),
            0.01,
            "from_parts keeps the default joining slope"
        );
        let mut net = QuantNet::new();
        net.push_residual(block);
        assert_eq!(net.conv_count(), 1);
        let x = uniform(&mut rng, &[1, 4, 4, 4], -1.0, 1.0);
        let y = net.forward(&x, true);
        assert_eq!(y.dims(), &[1, 4, 4, 4]);
        let dx = net.backward(&Tensor::ones(y.dims()));
        assert_eq!(dx.dims(), x.dims());
    }

    #[test]
    fn residual_block_carries_custom_slope() {
        let mut rng = TensorRng::seed(14);
        let scheme = QuantScheme::l1();
        let mut main = QuantNet::new();
        main.push_conv(QuantConv2d::new(&mut rng, &scheme, 2, 2, 3, 1, 1));
        let mut block = QuantResidualBlock::from_parts_with_slope(main, None, 0.2);
        assert_eq!(block.activation_slope(), 0.2);
        // The custom slope must actually shape the joining activation.
        let x = uniform(&mut rng, &[1, 2, 4, 4], -1.0, 1.0);
        let y = block.forward(&x, false);
        assert_eq!(y.dims(), &[1, 2, 4, 4]);
    }

    #[test]
    fn param_visiting_covers_thresholds() {
        let mut net = tiny_net(&QuantScheme::flight(1e-5));
        let mut param_tensors = 0;
        net.visit_params(&mut |_| param_tensors += 1);
        // conv: shadow+bias+thresholds; bn: gamma+beta; linear:
        // shadow+bias+thresholds = 8.
        assert_eq!(param_tensors, 8);
    }
}
