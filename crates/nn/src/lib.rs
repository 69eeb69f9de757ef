//! Neural-network substrate for the HFL reproduction.
//!
//! The paper builds its instruction generator and hardware-coverage
//! predictor on LSTMs trained with PyTorch; Rust's ML ecosystem has no
//! mature equivalent for LSTM + PPO training, so this crate implements the
//! required pieces from scratch (see `DESIGN.md`, substitution table):
//!
//! - [`Tensor`]: dense f32 parameters with gradients and Adam moments,
//! - [`Embedding`], [`Linear`], [`Lstm`]: the layers both models use, with
//!   exact analytic gradients (validated against numerical differentiation
//!   in the test suite) and batched forwards ([`Linear::forward_batch`],
//!   [`Lstm::step_batch`]) that take `&self`, allocate only their
//!   temporaries and results, and are bit-identical to one per-input
//!   forward each,
//! - [`ops`]: softmax/cross-entropy/BCE losses and categorical sampling,
//! - [`Adam`]: the optimiser, defaulting to the paper's `1e-4` learning
//!   rate.
//!
//! Everything is deterministic given a seeded `rand` RNG.
//!
//! # Examples
//!
//! Train a one-layer LSTM to push its outputs toward zero:
//!
//! ```
//! use hfl_nn::{Adam, Lstm};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut lstm = Lstm::new(4, 8, 1, &mut rng);
//! let mut adam = Adam::new(1e-2);
//! let xs = vec![vec![0.5; 4]; 3];
//! for _ in 0..10 {
//!     let trace = lstm.forward_seq(&xs);
//!     let d_out: Vec<Vec<f32>> = trace.outputs.clone(); // dL/dh = h
//!     lstm.backward_seq(&trace, &d_out);
//!     adam.step(&mut lstm.params_mut());
//! }
//! ```

pub mod adam;
pub mod embedding;
pub mod linear;
pub mod lstm;
pub mod ops;
pub mod persist;
pub mod tensor;

pub use adam::Adam;
pub use embedding::Embedding;
pub use linear::Linear;
pub use lstm::{Lstm, LstmCell, LstmState, LstmTrace};
pub use persist::{Codec, PersistError, SnapshotReader, SnapshotWriter};
pub use tensor::Tensor;
