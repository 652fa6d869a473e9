"""The "Large Value Challenge" (Section V): exact counts break CONGEST.

On a diamond chain, sigma doubles per diamond, so exact-arithmetic BFS
waves carry Theta(N)-bit integers and must blow the strict per-edge
budget, while the same protocol under L-float arithmetic stays within
O(log N) bits and still delivers accurate betweenness.  This is the
machine-checked version of the paper's motivation for Section VI.
"""

import pytest

from repro.centrality import brandes_betweenness
from repro.congest.options import RunOptions
from repro.core import distributed_betweenness
from repro.exceptions import CongestViolationError
from repro.graphs import diamond_chain_graph

# 80 diamonds: sigma reaches 2**80, so an exact BFS wave costs 81 bits
# of payload plus ~31 bits of protocol fields = 112 bits, while an
# L-float (L=8) wave costs 2L + 1 = 17 payload bits = 48 total (64 when
# a convergecast message shares the edge).  A strict budget of
# 12 * ceil(log2(241)) = 96 bits separates the two regimes.
CHAIN = diamond_chain_graph(80)
FACTOR = 12


class TestLargeValueChallenge:
    def test_exact_arithmetic_violates_congest(self):
        with pytest.raises(CongestViolationError) as err:
            distributed_betweenness(
                CHAIN,
                arithmetic="exact",
                options=RunOptions(congest_factor=FACTOR),
            )
        assert err.value.bits_used > err.value.bits_allowed

    def test_lfloat_fits_same_budget(self):
        result = distributed_betweenness(
            CHAIN,
            arithmetic="lfloat-8",
            options=RunOptions(congest_factor=FACTOR),
        )
        assert result.stats.max_edge_bits_per_round <= FACTOR * 8

    def test_lfloat_still_accurate(self):
        result = distributed_betweenness(
            CHAIN,
            arithmetic="lfloat",
            options=RunOptions(congest_factor=32),
        )
        reference = brandes_betweenness(CHAIN, exact=True)
        for v in CHAIN.nodes():
            if reference[v]:
                err = abs(result.betweenness[v] / float(reference[v]) - 1.0)
                assert err < 1e-2

    def test_exact_mode_passes_in_lenient_mode(self):
        """Without enforcement the exact run still gets the right answer —
        the CONGEST model is what makes big values a *distributed* problem."""
        result = distributed_betweenness(
            diamond_chain_graph(12),
            arithmetic="exact",
            options=RunOptions(strict=False),
        )
        reference = brandes_betweenness(diamond_chain_graph(12), exact=True)
        assert result.betweenness_exact == reference
