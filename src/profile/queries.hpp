#pragma once

// Derived profile metrics: the application features of the paper's ML
// model (nInv, nDiffStack, StackDep) and the mpiP-style communication
// report used to understand a workload's collective mix.

#include <span>
#include <string>
#include <vector>

#include "profile/profiler.hpp"
#include "profile/records.hpp"

namespace fastfit::profile {

// Each site query reads one site's invocation records on one rank, so
// collective and point-to-point sites share it: pass `site.invocations`.

/// Number of invocations of a site on this rank: the nInv feature.
std::uint64_t n_invocations(
    std::span<const InvocationRecord> invocations) noexcept;

/// Number of distinct call stacks observed at a site: nDiffStack.
std::size_t n_distinct_stacks(std::span<const InvocationRecord> invocations);

/// Mean shadow-stack depth over invocations: the StackDep feature.
double mean_stack_depth(
    std::span<const InvocationRecord> invocations) noexcept;

/// The context-pruning representatives: the first invocation of each
/// distinct call stack, ordered by invocation number. Injecting into
/// these covers every application context the site runs in (Sec III-B).
std::vector<InvocationRecord> stack_representatives(
    std::span<const InvocationRecord> invocations);

/// Fraction of all collective invocations (across ranks) with this kind;
/// e.g. the paper notes >84% of LAMMPS collectives are MPI_Allreduce.
double collective_fraction(const Profiler& profiler, mpi::CollectiveKind kind);

/// Fraction of invocations of `kind` flagged as error handling; the paper
/// reports 40.32% for LAMMPS' MPI_Allreduce.
double errhal_fraction(const Profiler& profiler, mpi::CollectiveKind kind);

/// mpiP-like plain-text communication report, aggregated over ranks:
/// one row per call site (kind, file:line, calls, bytes, % of calls).
std::string mpip_report(const Profiler& profiler);

}  // namespace fastfit::profile
