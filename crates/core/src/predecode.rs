//! Lowering a case body for the simulators: assemble it, then predecode
//! its executable window.
//!
//! A campaign runs each case once on the DUT and once on the GRM, and
//! every case is a new program, so [`PreparedCase::lower`] runs once per
//! executed case and nothing keeps a lowering. Both simulators step over
//! the one image it builds.

use hfl_grm::{PredecodedProgram, Program};

use crate::baselines::TestBody;

/// A body lowered once: the assembled program plus its predecoded image,
/// which the DUT and the GRM both step over.
#[derive(Debug, Clone)]
pub struct PreparedCase {
    /// The assembled program.
    pub program: Program,
    /// The predecoded executable-window image of `program`.
    pub image: PredecodedProgram,
}

impl PreparedCase {
    /// Assembles `body` and predecodes the program. A pure function of
    /// the body: a multi-hart body's `sched_seed` selects the runtime
    /// interleaving, not the program, so it does not change the lowering.
    ///
    /// # Examples
    ///
    /// ```
    /// use hfl::baselines::TestBody;
    /// use hfl::predecode::PreparedCase;
    /// use hfl_riscv::{Instruction, Opcode, Reg};
    ///
    /// let body = vec![Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 1)];
    /// let single = PreparedCase::lower(&TestBody::Asm(body.clone()));
    /// let mhart = PreparedCase::lower(&TestBody::Mhart { body, sched_seed: 7 });
    /// assert_eq!(single.program.words, mhart.program.words);
    /// assert_eq!(single.image, mhart.image);
    /// ```
    #[must_use]
    pub fn lower(body: &TestBody) -> PreparedCase {
        let program = match body {
            TestBody::Asm(instructions)
            | TestBody::Mhart {
                body: instructions, ..
            } => Program::assemble(instructions),
            TestBody::Words(words) => Program::assemble_raw(words),
        };
        PreparedCase {
            image: PredecodedProgram::new(&program),
            program,
        }
    }
}

/// A stateless second name for [`PreparedCase::lower`]:
/// [`PredecodeCache::prepare`] lowers the body and keeps nothing.
///
/// It exists only because the benchmark's traced side pass
/// (`e2ebench/src/trace.rs`) builds one and calls `prepare`, and that
/// file changes only together with the benchmark. Nothing else uses it;
/// call [`PreparedCase::lower`] instead.
#[derive(Debug, Clone, Default)]
pub struct PredecodeCache;

impl PredecodeCache {
    /// Lowers `body`; see [`PreparedCase::lower`].
    #[must_use]
    pub fn prepare(&self, body: &TestBody) -> PreparedCase {
        PreparedCase::lower(body)
    }
}
