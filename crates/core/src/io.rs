//! Saving and loading trained parameters.
//!
//! Parameters are serialized *state-dict style*: the network structure is
//! rebuilt from its [`NetworkConfig`](crate::configs::NetworkConfig) (or
//! any builder) and the flat parameter list is written/read in
//! `visit_params` order. The format is a tiny self-describing binary:
//!
//! ```text
//! magic "FLNN" | version u32 | tensor count u32 |
//!   per tensor: rank u32, dims u32…, data f32-LE…
//! ```
//!
//! # Example
//!
//! ```
//! use flightnn::io::{load_params, save_params};
//! use flightnn::{QuantScheme, configs::NetworkConfig};
//! use flight_tensor::TensorRng;
//!
//! # fn main() -> std::io::Result<()> {
//! let mut rng = TensorRng::seed(1);
//! let cfg = NetworkConfig::by_id(1);
//! let mut net = cfg.build(&QuantScheme::l1(), &mut rng, 10, [3, 16, 16], 0.25);
//! let mut buf = Vec::new();
//! save_params(&mut net, &mut buf)?;
//!
//! let mut rng2 = TensorRng::seed(2); // different init…
//! let mut net2 = cfg.build(&QuantScheme::l1(), &mut rng2, 10, [3, 16, 16], 0.25);
//! load_params(&mut net2, &mut buf.as_slice())?; // …restored exactly
//! # Ok(())
//! # }
//! ```

use std::io::{self, Read, Write};

use flight_nn::Layer;
use flight_tensor::Tensor;

const MAGIC: &[u8; 4] = b"FLNN";
const VERSION: u32 = 1;

/// Writes every trainable parameter of `net` to `writer`.
///
/// Any mutable borrow is only for the parameter visitor; values are not
/// modified. A `&mut` reference can be passed for `writer`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn save_params<W: Write>(net: &mut dyn Layer, mut writer: W) -> io::Result<()> {
    let mut tensors: Vec<Tensor> = Vec::new();
    net.visit_params(&mut |p| tensors.push(p.value.clone()));
    // Non-trainable state (batch-norm running statistics) is part of the
    // checkpoint: evaluation is wrong without it.
    net.visit_state(&mut |t| tensors.push(t.clone()));

    writer.write_all(MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&(tensors.len() as u32).to_le_bytes())?;
    for t in &tensors {
        let dims = t.dims();
        writer.write_all(&(dims.len() as u32).to_le_bytes())?;
        for &d in dims {
            writer.write_all(&(d as u32).to_le_bytes())?;
        }
        for &v in t.as_slice() {
            writer.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Restores parameters saved by [`save_params`] into `net`, which must
/// have been built with the same architecture (same parameter count and
/// shapes, in `visit_params` order).
///
/// # Errors
///
/// Returns `InvalidData` on a bad magic/version, a parameter-count
/// mismatch, or a shape mismatch; propagates reader I/O errors.
pub fn load_params<R: Read>(net: &mut dyn Layer, mut reader: R) -> io::Result<()> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not a FLNN parameter file"));
    }
    let version = read_u32(&mut reader)?;
    if version != VERSION {
        return Err(bad(&format!("unsupported version {version}")));
    }
    let count = read_u32(&mut reader)? as usize;

    let mut tensors = Vec::with_capacity(count);
    for _ in 0..count {
        let rank = read_u32(&mut reader)? as usize;
        if rank > 8 {
            return Err(bad(&format!("implausible tensor rank {rank}")));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(read_u32(&mut reader)? as usize);
        }
        let len: usize = dims.iter().product();
        let mut data = vec![0f32; len];
        let mut buf = [0u8; 4];
        for v in &mut data {
            reader.read_exact(&mut buf)?;
            *v = f32::from_le_bytes(buf);
        }
        tensors.push(Tensor::from_vec(data, &dims));
    }

    // Check the shapes against the target network before mutating it.
    let mut shapes = Vec::new();
    net.visit_params(&mut |p| shapes.push(p.value.dims().to_vec()));
    net.visit_state(&mut |t| shapes.push(t.dims().to_vec()));
    if shapes.len() != tensors.len() {
        return Err(bad(&format!(
            "parameter count mismatch: file has {}, network has {}",
            tensors.len(),
            shapes.len()
        )));
    }
    for (i, (shape, tensor)) in shapes.iter().zip(&tensors).enumerate() {
        if shape != tensor.dims() {
            return Err(bad(&format!(
                "parameter {i} shape mismatch: file {:?}, network {:?}",
                tensor.dims(),
                shape
            )));
        }
    }

    let mut iter = tensors.into_iter();
    net.visit_params(&mut |p| {
        p.value = iter.next().expect("count checked above");
    });
    net.visit_state(&mut |t| {
        *t = iter.next().expect("count checked above");
    });
    Ok(())
}

fn read_u32<R: Read>(reader: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    reader.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::NetworkConfig;
    use crate::QuantScheme;
    use flight_tensor::{Tensor as T, TensorRng};

    fn build(seed: u64) -> crate::QuantNet {
        let mut rng = TensorRng::seed(seed);
        NetworkConfig::by_id(1).build(&QuantScheme::flight(1e-5), &mut rng, 10, [3, 16, 16], 0.25)
    }

    #[test]
    fn round_trip_restores_exact_values() {
        let mut a = build(1);
        let mut buf = Vec::new();
        save_params(&mut a, &mut buf).unwrap();

        let mut b = build(2);
        load_params(&mut b, &mut buf.as_slice()).unwrap();

        // Same forward output on the same input.
        let x = T::ones(&[1, 3, 16, 16]);
        let ya = a.forward(&x, false);
        let yb = b.forward(&x, false);
        assert_eq!(ya, yb);
    }

    #[test]
    fn thresholds_survive_the_round_trip() {
        let mut a = build(3);
        a.visit_quant_convs(&mut |c| {
            c.weights_mut().thresholds_mut().unwrap().value = T::from_slice(&[0.1, 0.2]);
        });
        let mut buf = Vec::new();
        save_params(&mut a, &mut buf).unwrap();
        let mut b = build(4);
        load_params(&mut b, &mut buf.as_slice()).unwrap();
        b.visit_quant_convs(&mut |c| {
            assert_eq!(
                c.weights().thresholds().unwrap().value.as_slice(),
                &[0.1, 0.2]
            );
        });
    }

    #[test]
    fn batchnorm_running_stats_round_trip() {
        use flight_nn::Layer;
        // Train a little so the running stats move away from (0, 1);
        // a reloaded network must evaluate identically.
        let mut a = build(31);
        let x = flight_tensor::uniform(&mut TensorRng::seed(32), &[8, 3, 16, 16], -1.0, 1.0);
        for _ in 0..3 {
            a.forward(&x, true); // updates running statistics
        }
        let mut buf = Vec::new();
        save_params(&mut a, &mut buf).unwrap();
        let mut b = build(33);
        load_params(&mut b, &mut buf.as_slice()).unwrap();
        let probe = flight_tensor::uniform(&mut TensorRng::seed(34), &[2, 3, 16, 16], -1.0, 1.0);
        assert_eq!(a.forward(&probe, false), b.forward(&probe, false));
    }

    #[test]
    fn rejects_wrong_magic() {
        let mut net = build(5);
        let err = load_params(&mut net, &b"NOPE"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_architecture_mismatch() {
        let mut a = build(6);
        let mut buf = Vec::new();
        save_params(&mut a, &mut buf).unwrap();

        let mut rng = TensorRng::seed(7);
        let mut other = NetworkConfig::by_id(4).build(
            &QuantScheme::flight(1e-5),
            &mut rng,
            10,
            [3, 12, 12],
            0.25,
        );
        let err = load_params(&mut other, &mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("mismatch"));
    }

    #[test]
    fn truncated_file_is_an_error_not_a_panic() {
        let mut a = build(8);
        let mut buf = Vec::new();
        save_params(&mut a, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        let mut b = build(9);
        assert!(load_params(&mut b, &mut buf.as_slice()).is_err());
    }
}
