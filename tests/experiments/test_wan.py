"""Tests for the WAN sweep (placement x protocol x RTT grid)."""

import pytest

from repro.config import ModelParams
from repro.db.topology import TopologyKind
from repro.experiments import GridResults
from repro.experiments import wan


class TestConstruction:
    def test_rejects_unknown_placement(self):
        with pytest.raises(ValueError, match="placement"):
            wan.sweep(("2PC",), placements=("nearby",))

    def test_rejects_uneven_dc_split(self):
        with pytest.raises(ValueError, match="split"):
            wan.sweep(("2PC",), num_dcs=3)  # 8 sites % 3 != 0

    @pytest.mark.parametrize("num_dcs", [0, -2])
    def test_rejects_fewer_than_one_dc(self, num_dcs):
        with pytest.raises(ValueError, match="num_dcs must be >= 1"):
            wan.sweep(("2PC",), num_dcs=num_dcs)

    def test_rejects_empty_rtts(self):
        with pytest.raises(ValueError, match="rtts_ms"):
            wan.sweep(("2PC",), rtts_ms=())

    def test_topology_for(self):
        topology = wan.topology_for(8, 2, 40.0)
        assert topology.kind is TopologyKind.DCS
        assert topology.num_dcs == 2
        assert topology.sites_per_dc == 4
        assert topology.rtt_ms == 40.0

    def test_point_params_carry_placement(self):
        sweep = wan.sweep(("2PC",), mpl=3)
        spread = sweep.configure(placement="spread", protocol="2PC",
                                 rtt_ms=40.0).params
        local = sweep.configure(placement="local", protocol="2PC",
                                rtt_ms=40.0).params
        assert spread.mpl == 3
        assert not spread.prefer_local_cohorts
        assert local.prefer_local_cohorts
        assert local.network_topology.rtt_ms == 40.0

    def test_base_params_are_preserved(self):
        base = ModelParams(dist_degree=6)
        sweep = wan.sweep(("2PC",), params=base)
        config = sweep.configure(placement="spread", protocol="2PC",
                                 rtt_ms=10.0)
        assert config.params.dist_degree == 6

    def test_grid_order_is_placement_protocol_rtt(self):
        sweep = wan.sweep(("2PC", "PC"), rtts_ms=(0, 40),
                          placements=("spread", "local"))
        order = [(c["placement"], c["protocol"], c["rtt_ms"])
                 for c in sweep.coords()]
        assert order[:3] == [("spread", "2PC", 0.0), ("spread", "2PC", 40.0),
                             ("spread", "PC", 0.0)]
        assert len(order) == 8


@pytest.fixture(scope="module")
def wan_results() -> GridResults:
    """One shared 40ms grid over the protocols the ordering claim is
    about, both placements."""
    sweep = wan.sweep(("2PC", "PC", "3PC", "OPT"), rtts_ms=(40.0,),
                      placements=("spread", "local"), mpl=2,
                      measured_transactions=200)
    return sweep.run()


def _point(results, protocol, placement):
    return results.point(protocol=protocol, rtt_ms=40.0,
                         placement=placement)


class TestWanOrdering:
    """The acceptance claim: at WAN RTTs, protocols that serialize fewer
    cross-DC round trips on the commit path win."""

    def test_fewer_round_trip_protocols_commit_faster(self, wan_results):
        resp = {p: _point(wan_results, p, "spread")["response_ms"]
                for p in ("2PC", "PC", "3PC", "OPT")}
        # PC skips the commit-ACK round; OPT lends locks across the
        # prepared window.  Both beat 2PC; 3PC's extra PRECOMMIT round
        # is strictly worse.
        assert resp["PC"] < resp["2PC"]
        assert resp["OPT"] < resp["2PC"]
        assert resp["2PC"] < resp["3PC"]

    def test_round_trip_counts_track_protocol_structure(self, wan_results):
        xdc = {p: _point(wan_results, p, "spread")[
                   "cross_dc_round_trips_per_commit"]
               for p in ("2PC", "PC", "3PC")}
        assert all(value > 0 for value in xdc.values())
        assert xdc["PC"] < xdc["2PC"] < xdc["3PC"]

    def test_local_placement_avoids_the_expensive_links(self, wan_results):
        for protocol in ("2PC", "PC", "3PC", "OPT"):
            spread = _point(wan_results, protocol, "spread")
            local = _point(wan_results, protocol, "local")
            assert (local["cross_dc_round_trips_per_commit"]
                    < spread["cross_dc_round_trips_per_commit"])
            assert local["response_ms"] < spread["response_ms"]

    def test_message_split_covers_remote_traffic(self, wan_results):
        point = _point(wan_results, "2PC", "spread")
        assert point["cross_dc_messages"] > 0
        assert point["intra_dc_messages"] > 0


class TestRendering:
    def test_table_and_summary(self, wan_results):
        table = wan_results.table(
            "rtt_ms", "protocol", lambda point: f"{point['response_ms']:.0f}",
            corner="rtt", label_width=8, min_width=8, pad=1,
            row_label=lambda rtt: f"{rtt:.0f}ms",
            title="-- placement: spread --", placement="spread")
        assert "placement: spread" in table
        assert "40ms" in table
        summary = wan_results.summary()
        assert table.splitlines()[0] in summary
        assert "fastest commit" in summary
        assert " < " in summary

    def test_series(self, wan_results):
        series = wan_results.series("response_ms", along="rtt_ms",
                                    protocol="PC", placement="spread")
        assert len(series) == 1
        rtt, resp = series[0]
        assert rtt == 40.0
        assert resp > 0
