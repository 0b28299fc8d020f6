"""Per-layer metrics from the spans of traced jobs.

A layer is a weylnet module.  Self time of a span is its duration minus
the part its direct child spans cover; a layer's self time is the sum
over its spans.  The shared helpers ``cluster.kron_all`` and
``basis.weyl_matrix`` (and whatever they call) are charged to the layer
of the span that called them, and also get rows of their own.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from child import LAYERS

SHARED = {"cluster.kron_all", "basis.weyl_matrix"}
IO_WRITERS = {"io.operator_to_json", "io.operator_to_dict", "io.state_to_json",
              "io.state_to_dict", "io.schedule_to_json", "io.schedule_to_dicts",
              "io.trajectory_csv", "io.csv_lines"}

# inclusive-time rows: metric -> the spans it sums
INCLUSIVE = {
    "coherence.validate_state_s": ["coherence.validate_state"],
    "coherence.generator_matrix_s": ["coherence.generator_matrix"],
    "cluster.kron_all_s": ["cluster.kron_all"],
    "cluster.correlation_tensors_s": ["cluster.correlation_tensors"],
    "cluster.entropy_s": ["cluster.entropy_bits"],
    "collective.decompose_s": ["collective.decompose_collective"],
    "collective.placements_s": ["collective.placements", "collective.f_placements",
                                "collective.g_placements"],
    "collective.decompose_in_family_s": ["collective.decompose_in_family"],
    "commuting.common_eigenstate_s": ["commuting.common_eigenstate"],
    "symmetry.spin_projectors_s": ["symmetry.spin_projectors"],
    "protocols.expm_s": ["protocols.hermitian_expm", "protocols.pade_expm"],
    "basis.weyl_matrix_s": ["basis.weyl_matrix"],
}
CALLS = {
    "cluster.kron_all_calls": "cluster.kron_all",
    "symmetry.spin_basis_calls": "symmetry.spin_basis",
    "protocols.hermitian_expm_calls": "protocols.hermitian_expm",
    "protocols.collective_control_calls": "protocols.collective_control",
    "basis.weyl_matrix_calls": "basis.weyl_matrix",
}

UNITS = {f"{layer}.self_s": "s" for layer in LAYERS}
UNITS.update({name: "s" for name in INCLUSIVE})
UNITS.update({name: "count" for name in CALLS})
UNITS.update({
    "io.read_mb_per_s": "MB/s",
    "io.write_s": "s",
    "cluster.kron_all_mb": "MB",
    "cluster.cluster_sums_per_state": "count",
    "commuting.expansions": "count",
    "commuting.expansions_per_s": "1/s",
    "commuting.exact_ratio": "ratio",
    "commuting.cap_refusals": "count",
    "trace.overhead_ratio": "ratio",
})


class LayerTally:
    """Raw sums over the traced jobs of one pass."""

    def __init__(self):
        self.self_s = Counter()
        self.incl_s = Counter()
        self.calls = Counter()
        self.notes = defaultdict(list)
        self.io_write_s = 0.0
        self.states_summed = 0

    def add_job(self, spans: list):
        durations = [end - start for _, start, end, _, _ in spans]
        child_s = [0.0] * len(spans)
        layer = [None] * len(spans)
        shared = [False] * len(spans)
        for i, (name, _, _, parent, note) in enumerate(spans):
            if parent >= 0:
                child_s[parent] += durations[i]
            shared[i] = name in SHARED or (parent >= 0 and shared[parent])
            own = name.split(".", 1)[0]
            inherit = shared[i] and parent >= 0
            layer[i] = layer[parent] if inherit else (own if own in LAYERS else None)
            self.incl_s[name] += durations[i]
            self.calls[name] += 1
            if note is not None:
                self.notes[name].append(note)
            if name in IO_WRITERS and not (parent >= 0 and spans[parent][0].startswith("io.")):
                self.io_write_s += durations[i]
        for i in range(len(spans)):
            if layer[i] is not None:
                self.self_s[layer[i]] += durations[i] - child_s[i]
        # object ids are only unique within one process, so count per job
        self.states_summed += len(set(self.notes.pop("cluster.cluster_sums", [])))

    def metrics(self) -> dict:
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        for name, spans in INCLUSIVE.items():
            out[name] = sum(self.incl_s[s] for s in spans)
        for name, span in CALLS.items():
            out[name] = self.calls[span]
        read_s = self.incl_s["io.state_from_json"]
        read_mb = sum(x for x in self.notes["io.state_from_json"] if isinstance(x, int)) / 1e6
        out["io.read_mb_per_s"] = read_mb / read_s if read_s > 0 else 0.0
        out["io.write_s"] = self.io_write_s
        out["cluster.kron_all_mb"] = sum(
            x for x in self.notes["cluster.kron_all"] if isinstance(x, int)) / 1e6
        sums = self.calls["cluster.cluster_sums"]
        out["cluster.cluster_sums_per_state"] = sums / self.states_summed if self.states_summed else 0.0
        searches = [x for x in self.notes["commuting.search_max_commuting"] if isinstance(x, list)]
        expansions = sum(e for e, _ in searches)
        search_s = self.incl_s["commuting.search_max_commuting"]
        out["commuting.expansions"] = expansions
        out["commuting.expansions_per_s"] = expansions / search_s if search_s > 0 else 0.0
        out["commuting.exact_ratio"] = sum(x for _, x in searches) / len(searches) if searches else 0.0
        out["commuting.cap_refusals"] = self.notes["commuting.search_max_commuting"].count("CapExceeded")
        return out
