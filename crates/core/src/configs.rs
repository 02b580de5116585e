//! The eight network configurations of Table 1 and their builder.
//!
//! | ID | Params | Structure | Depth | Width | Dataset   |
//! |----|--------|-----------|-------|-------|-----------|
//! | 1  | 0.08M  | VGG       | 7     | 64    | CIFAR-10  |
//! | 2  | 0.7M   | ResNet    | 18    | 128   | CIFAR-10  |
//! | 3  | 4.6M   | VGG       | 7     | 512   | CIFAR-10  |
//! | 4  | 0.03M  | VGG       | 4     | 64    | SVHN      |
//! | 5  | 0.1M   | VGG       | 4     | 128   | SVHN      |
//! | 6  | 0.7M   | ResNet    | 18    | 128   | CIFAR-100 |
//! | 7  | 2.8M   | ResNet    | 18    | 256   | CIFAR-100 |
//! | 8  | 1.8M   | ResNet    | 10    | 256   | ImageNet  |
//!
//! "Depth" counts convolutional layers, "Width" is the filter count of
//! the largest layer. Every conv is followed by batch norm and LeakyReLU
//! (§5.1); VGG variants downsample with max pooling, ResNet variants with
//! stride-2 blocks and finish with global average pooling.

use flight_data::DatasetKind;
use flight_nn::layers::{BatchNorm2d, Flatten, GlobalAvgPool, LeakyRelu, MaxPool2d};
use flight_tensor::{Conv2dGeometry, TensorRng};
use serde::{Deserialize, Serialize};

use crate::layers::{ActQuant, QuantConv2d, QuantLinear};
use crate::net::{QuantNet, QuantResidualBlock};
use crate::scheme::QuantScheme;

/// Network identifier 1–8 (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NetworkId(u8);

impl NetworkId {
    /// Creates an id.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= id <= 8`.
    pub fn new(id: u8) -> Self {
        assert!((1..=8).contains(&id), "network id must be 1..=8, got {id}");
        NetworkId(id)
    }

    /// The raw id.
    pub fn get(&self) -> u8 {
        self.0
    }
}

impl std::fmt::Display for NetworkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Network family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Structure {
    /// Stacked conv layers with max pooling (networks 1, 3, 4, 5).
    Vgg,
    /// Basic residual blocks with skip connections (networks 2, 6, 7, 8).
    ResNet,
}

impl std::fmt::Display for Structure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Structure::Vgg => write!(f, "VGG"),
            Structure::ResNet => write!(f, "ResNet"),
        }
    }
}

/// One row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Network id (1–8).
    pub id: NetworkId,
    /// VGG or ResNet.
    pub structure: Structure,
    /// Number of convolutional layers.
    pub depth: usize,
    /// Filter count of the widest layer.
    pub width: usize,
    /// Dataset the paper evaluates this network on.
    pub dataset: DatasetKind,
    /// Parameter count the paper reports (millions), for the Table 1
    /// reproduction.
    pub paper_params_m: f32,
}

/// Geometry of one convolutional layer in a built network, in
/// `visit_quant_convs` order — the interface consumed by the FPGA and
/// ASIC models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvSpec {
    /// Input channels.
    pub in_channels: usize,
    /// Output filters.
    pub out_channels: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Padding.
    pub padding: usize,
    /// Input spatial height at this layer.
    pub in_h: usize,
    /// Input spatial width at this layer.
    pub in_w: usize,
}

impl ConvSpec {
    /// The conv geometry (output sizes, MAC counts).
    pub fn geometry(&self) -> Conv2dGeometry {
        Conv2dGeometry::new(
            self.in_channels,
            self.in_h,
            self.in_w,
            self.kernel,
            self.stride,
            self.padding,
        )
    }

    /// Multiply-accumulates for one image through this layer.
    pub fn macs(&self) -> usize {
        self.geometry().macs(self.out_channels)
    }

    /// Number of weights.
    pub fn weights(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel * self.kernel
    }
}

impl NetworkConfig {
    /// All eight Table 1 configurations, in id order.
    pub fn table1() -> Vec<NetworkConfig> {
        use DatasetKind::*;
        use Structure::*;
        let rows: [(u8, Structure, usize, usize, DatasetKind, f32); 8] = [
            (1, Vgg, 7, 64, Cifar10Like, 0.08),
            (2, ResNet, 18, 128, Cifar10Like, 0.7),
            (3, Vgg, 7, 512, Cifar10Like, 4.6),
            (4, Vgg, 4, 64, SvhnLike, 0.03),
            (5, Vgg, 4, 128, SvhnLike, 0.1),
            (6, ResNet, 18, 128, Cifar100Like, 0.7),
            (7, ResNet, 18, 256, Cifar100Like, 2.8),
            (8, ResNet, 10, 256, ImageNetLike, 1.8),
        ];
        rows.into_iter()
            .map(
                |(id, structure, depth, width, dataset, params)| NetworkConfig {
                    id: NetworkId::new(id),
                    structure,
                    depth,
                    width,
                    dataset,
                    paper_params_m: params,
                },
            )
            .collect()
    }

    /// Looks up one Table 1 row by id.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= id <= 8`.
    pub fn by_id(id: u8) -> NetworkConfig {
        let id = NetworkId::new(id);
        Self::table1()
            .into_iter()
            .find(|c| c.id == id)
            .expect("table1 covers ids 1..=8")
    }

    /// Channel plan of the conv trunk at `width_scale` (1.0 = the paper's
    /// width).
    fn scaled(&self, base: usize, width_scale: f32) -> usize {
        (((base as f32) * width_scale).round() as usize).max(4)
    }

    /// The convolutional layer geometries of this network, in the order
    /// [`QuantNet::visit_quant_convs`] visits them after
    /// [`NetworkConfig::build`].
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit the network (e.g. a VGG-7 needs
    /// spatial dims divisible by 8).
    pub fn conv_plan(&self, image: [usize; 3], width_scale: f32) -> Vec<ConvSpec> {
        let (c0, mut h, mut w) = (image[0], image[1], image[2]);
        let mut plan = Vec::new();
        match self.structure {
            Structure::Vgg => {
                let (a, b, c) = (
                    self.scaled(self.width / 4, width_scale),
                    self.scaled(self.width / 2, width_scale),
                    self.scaled(self.width, width_scale),
                );
                // VGG-7: a a P b b P c c c P ; VGG-4: a b P c c P.
                let (channels, pool_after): (Vec<usize>, Vec<usize>) = match self.depth {
                    7 => (vec![a, a, b, b, c, c, c], vec![1, 3, 6]),
                    4 => (vec![a, a, b, c], vec![1, 3]),
                    d => panic!("unsupported VGG depth {d}"),
                };
                let mut cin = c0;
                for (i, &cout) in channels.iter().enumerate() {
                    plan.push(ConvSpec {
                        in_channels: cin,
                        out_channels: cout,
                        kernel: 3,
                        stride: 1,
                        padding: 1,
                        in_h: h,
                        in_w: w,
                    });
                    cin = cout;
                    if pool_after.contains(&i) {
                        assert!(
                            h % 2 == 0 && w % 2 == 0,
                            "VGG pooling needs even spatial dims, got {h}x{w}"
                        );
                        h /= 2;
                        w /= 2;
                    }
                }
            }
            Structure::ResNet => {
                let stem = self.scaled(self.width / 8, width_scale);
                let stages: Vec<usize> =
                    [self.width / 8, self.width / 4, self.width / 2, self.width]
                        .iter()
                        .map(|&c| self.scaled(c, width_scale))
                        .collect();
                let blocks_per_stage = match self.depth {
                    18 => 2,
                    10 => 1,
                    d => panic!("unsupported ResNet depth {d}"),
                };
                // Stem.
                plan.push(ConvSpec {
                    in_channels: c0,
                    out_channels: stem,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                    in_h: h,
                    in_w: w,
                });
                let mut cin = stem;
                for (si, &cout) in stages.iter().enumerate() {
                    for bi in 0..blocks_per_stage {
                        let stride = if si > 0 && bi == 0 { 2 } else { 1 };
                        // Main conv 1.
                        plan.push(ConvSpec {
                            in_channels: cin,
                            out_channels: cout,
                            kernel: 3,
                            stride,
                            padding: 1,
                            in_h: h,
                            in_w: w,
                        });
                        let g = plan.last().expect("just pushed").geometry();
                        let (oh, ow) = (g.out_h, g.out_w);
                        // Main conv 2.
                        plan.push(ConvSpec {
                            in_channels: cout,
                            out_channels: cout,
                            kernel: 3,
                            stride: 1,
                            padding: 1,
                            in_h: oh,
                            in_w: ow,
                        });
                        // Projection shortcut.
                        if stride != 1 || cin != cout {
                            plan.push(ConvSpec {
                                in_channels: cin,
                                out_channels: cout,
                                kernel: 1,
                                stride,
                                padding: 0,
                                in_h: h,
                                in_w: w,
                            });
                        }
                        h = oh;
                        w = ow;
                        cin = cout;
                    }
                }
            }
        }
        plan
    }

    /// The layer with the most multiply-accumulates — the layer the paper
    /// implements on the FPGA/ASIC ("each network's largest convolutional
    /// layer", §5.2).
    pub fn largest_conv(&self, image: [usize; 3], width_scale: f32) -> ConvSpec {
        self.conv_plan(image, width_scale)
            .into_iter()
            .max_by_key(ConvSpec::macs)
            .expect("every network has at least one conv layer")
    }

    /// Builds the network for `classes` output classes on images shaped
    /// `[c, h, w]`, quantized per `scheme`, with all channel counts scaled
    /// by `width_scale`.
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit the architecture (spatial
    /// divisibility for VGG pooling).
    pub fn build(
        &self,
        scheme: &QuantScheme,
        rng: &mut TensorRng,
        classes: usize,
        image: [usize; 3],
        width_scale: f32,
    ) -> QuantNet {
        assert!(classes > 0, "need at least one class");
        let plan = self.conv_plan(image, width_scale);
        let mut net = QuantNet::new();
        let quant_act = scheme.quantizes_activations();
        let act_bits = scheme.act_bits();

        let push_act = |net: &mut QuantNet| {
            net.push_plain(LeakyRelu::default());
            if quant_act {
                net.push_plain(ActQuant::new(act_bits));
            }
        };
        // The first conv sees the input image on the same grid as every
        // later conv sees its activations (the integer engine quantizes
        // the input there too).
        if quant_act {
            net.push_plain(ActQuant::new(act_bits));
        }

        match self.structure {
            Structure::Vgg => {
                let pool_after: Vec<usize> = match self.depth {
                    7 => vec![1, 3, 6],
                    4 => vec![1, 3],
                    d => panic!("unsupported VGG depth {d}"),
                };
                let mut spatial = (image[1], image[2]);
                let mut last_channels = image[0];
                for (i, spec) in plan.iter().enumerate() {
                    net.push_conv(QuantConv2d::new(
                        rng,
                        scheme,
                        spec.in_channels,
                        spec.out_channels,
                        spec.kernel,
                        spec.stride,
                        spec.padding,
                    ));
                    net.push_plain(BatchNorm2d::new(spec.out_channels));
                    push_act(&mut net);
                    last_channels = spec.out_channels;
                    if pool_after.contains(&i) {
                        net.push_plain(MaxPool2d::new(2));
                        spatial = (spatial.0 / 2, spatial.1 / 2);
                    }
                }
                net.push_plain(Flatten::new());
                net.push_linear(QuantLinear::new(
                    rng,
                    scheme,
                    last_channels * spatial.0 * spatial.1,
                    classes,
                ));
            }
            Structure::ResNet => {
                let blocks_per_stage = match self.depth {
                    18 => 2,
                    10 => 1,
                    d => panic!("unsupported ResNet depth {d}"),
                };
                let mut iter = plan.iter();
                let stem = iter.next().expect("plan starts with the stem");
                net.push_conv(QuantConv2d::new(
                    rng,
                    scheme,
                    stem.in_channels,
                    stem.out_channels,
                    3,
                    1,
                    1,
                ));
                net.push_plain(BatchNorm2d::new(stem.out_channels));
                push_act(&mut net);

                let mut last_channels = stem.out_channels;
                for _si in 0..4 {
                    for _bi in 0..blocks_per_stage {
                        let c1 = iter.next().expect("plan has block conv 1");
                        let c2 = iter.next().expect("plan has block conv 2");
                        let needs_projection = c1.stride != 1 || c1.in_channels != c1.out_channels;

                        let mut main = QuantNet::new();
                        main.push_conv(QuantConv2d::new(
                            rng,
                            scheme,
                            c1.in_channels,
                            c1.out_channels,
                            c1.kernel,
                            c1.stride,
                            c1.padding,
                        ));
                        main.push_plain(BatchNorm2d::new(c1.out_channels));
                        main.push_plain(LeakyRelu::default());
                        if quant_act {
                            main.push_plain(ActQuant::new(act_bits));
                        }
                        main.push_conv(QuantConv2d::new(
                            rng,
                            scheme,
                            c2.in_channels,
                            c2.out_channels,
                            c2.kernel,
                            c2.stride,
                            c2.padding,
                        ));
                        main.push_plain(BatchNorm2d::new(c2.out_channels));

                        let shortcut = if needs_projection {
                            let p = iter.next().expect("plan has the projection conv");
                            let mut sc = QuantNet::new();
                            sc.push_conv(QuantConv2d::new(
                                rng,
                                scheme,
                                p.in_channels,
                                p.out_channels,
                                p.kernel,
                                p.stride,
                                p.padding,
                            ));
                            sc.push_plain(BatchNorm2d::new(p.out_channels));
                            Some(sc)
                        } else {
                            None
                        };
                        net.push_residual(QuantResidualBlock::from_parts(main, shortcut));
                        if quant_act {
                            net.push_plain(ActQuant::new(act_bits));
                        }
                        last_channels = c1.out_channels;
                    }
                }
                net.push_plain(GlobalAvgPool::new());
                net.push_linear(QuantLinear::new(rng, scheme, last_channels, classes));
            }
        }
        net
    }
}

impl std::fmt::Display for NetworkConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Network {} ({}-{}, width {}, {})",
            self.id,
            self.structure,
            self.depth,
            self.width,
            self.dataset.paper_name()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flight_nn::Layer;
    use flight_tensor::Tensor;

    #[test]
    fn table1_has_eight_rows_in_order() {
        let rows = NetworkConfig::table1();
        assert_eq!(rows.len(), 8);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.id.get() as usize, i + 1);
        }
    }

    #[test]
    fn depth_matches_structure_naming() {
        // VGG-d has d conv layers; ResNet-d follows the standard naming
        // where d counts the convs plus the final classifier (ResNet-18 =
        // 17 convs + 1 FC), projection shortcuts excluded.
        for cfg in NetworkConfig::table1() {
            let image = match cfg.dataset {
                DatasetKind::SvhnLike => [3, 12, 12],
                DatasetKind::ImageNetLike => [3, 20, 20],
                _ => [3, 16, 16],
            };
            let plan = cfg.conv_plan(image, 1.0);
            let non_projection = plan.iter().filter(|s| s.kernel != 1).count();
            let expected = match cfg.structure {
                Structure::Vgg => cfg.depth,
                Structure::ResNet => cfg.depth - 1,
            };
            assert_eq!(
                non_projection, expected,
                "network {} depth mismatch",
                cfg.id
            );
        }
    }

    #[test]
    fn width_is_the_largest_filter_count() {
        for cfg in NetworkConfig::table1() {
            let image = match cfg.dataset {
                DatasetKind::SvhnLike => [3, 12, 12],
                DatasetKind::ImageNetLike => [3, 20, 20],
                _ => [3, 16, 16],
            };
            let plan = cfg.conv_plan(image, 1.0);
            let max_filters = plan.iter().map(|s| s.out_channels).max().unwrap();
            assert_eq!(max_filters, cfg.width, "network {}", cfg.id);
        }
    }

    #[test]
    fn paper_param_counts_are_same_order_of_magnitude() {
        // Our layer plans are reconstructions (the paper does not publish
        // exact channel schedules); parameter counts must land within ~2x
        // of Table 1.
        let mut rng = TensorRng::seed(5);
        for cfg in NetworkConfig::table1() {
            let image = match cfg.dataset {
                DatasetKind::SvhnLike => [3, 12, 12],
                DatasetKind::ImageNetLike => [3, 20, 20],
                _ => [3, 16, 16],
            };
            let mut net = cfg.build(&QuantScheme::full(), &mut rng, 10, image, 1.0);
            let params_m = net.param_count() as f32 / 1e6;
            let ratio = params_m / cfg.paper_params_m;
            assert!(
                (0.3..4.0).contains(&ratio),
                "network {}: {params_m}M vs paper {}M",
                cfg.id,
                cfg.paper_params_m
            );
        }
    }

    #[test]
    fn built_networks_run_forward_and_backward() {
        let mut rng = TensorRng::seed(6);
        // One VGG and one ResNet at reduced width for speed.
        for id in [1u8, 2] {
            let cfg = NetworkConfig::by_id(id);
            let mut net = cfg.build(&QuantScheme::flight(1e-5), &mut rng, 10, [3, 16, 16], 0.25);
            let x = Tensor::zeros(&[2, 3, 16, 16]);
            let y = net.forward(&x, true);
            assert_eq!(y.dims(), &[2, 10]);
            let dx = net.backward(&Tensor::ones(&[2, 10]));
            assert_eq!(dx.dims(), &[2, 3, 16, 16]);
        }
    }

    #[test]
    fn conv_plan_order_matches_visitor_order() {
        let mut rng = TensorRng::seed(7);
        let cfg = NetworkConfig::by_id(2);
        let plan = cfg.conv_plan([3, 16, 16], 0.25);
        let mut net = cfg.build(&QuantScheme::l1(), &mut rng, 10, [3, 16, 16], 0.25);
        let mut shapes = Vec::new();
        net.visit_quant_convs(&mut |c| {
            let d = c.weights().shadow().value.dims().to_vec();
            shapes.push(d);
        });
        assert_eq!(shapes.len(), plan.len());
        for (spec, dims) in plan.iter().zip(&shapes) {
            assert_eq!(dims[0], spec.out_channels);
            assert_eq!(dims[1], spec.in_channels);
            assert_eq!(dims[2], spec.kernel);
        }
    }

    #[test]
    fn largest_conv_is_in_the_widest_stage() {
        let cfg = NetworkConfig::by_id(7);
        let largest = cfg.largest_conv([3, 16, 16], 1.0);
        assert_eq!(largest.out_channels, 256);
    }

    #[test]
    #[should_panic(expected = "network id")]
    fn rejects_bad_id() {
        NetworkConfig::by_id(9);
    }

    #[test]
    fn width_scale_shrinks_plans() {
        let cfg = NetworkConfig::by_id(3);
        let full = cfg.conv_plan([3, 16, 16], 1.0);
        let half = cfg.conv_plan([3, 16, 16], 0.5);
        for (f, h) in full.iter().zip(&half) {
            assert!(h.out_channels <= f.out_channels);
        }
    }
}
