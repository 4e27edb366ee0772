"""Transport benchmark: geodesy, component extent, station significance."""
from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spatial_link import aar
from spatial_link.aar import (
    AarComponent,
    GeoPoint,
    build_aar_graph,
    component_extent,
    connected_components,
    elevated_points,
    equirect_distance,
    run_aar,
    snap_to_node,
    station_path_significance,
)
from spatial_link.errors import (
    DimMismatch, EmptySide, MalformedHeader, PathExplosion, StationUnreachable,
)
from spatial_link.grid import ChangeGrid, GridRegistration
from spatial_link.paths import enumerate_walks

DEG = GridRegistration(lat0=0.0, lon0=0.0, dlat=1.0, dlon=1.0, cell_km=111.11)


def grid_of(values, registration=DEG, valid=None) -> ChangeGrid:
    values = np.asarray(values, dtype=float)
    valid = np.ones_like(values, dtype=bool) if valid is None else valid
    return ChangeGrid(values=values, valid_mask=valid, registration=registration)


def point_grids(dims, cells, value=10.0, background=0.1, registration=DEG):
    """Value grid plus a 0/1 mask grid flagging the given cells."""
    vals = np.full(dims, background)
    mask = np.zeros(dims)
    for r, c in cells:
        vals[r, c] = value
        mask[r, c] = 1.0
    return grid_of(vals, registration), grid_of(mask, registration)


class TestGeoPoint:
    def test_latitude_domain(self):
        with pytest.raises(ValueError):
            GeoPoint(lat=91.0, lon=0.0)

    def test_longitude_domain(self):
        with pytest.raises(ValueError):
            GeoPoint(lat=0.0, lon=180.0)

    def test_valid_extremes(self):
        GeoPoint(lat=-90.0, lon=-180.0)
        GeoPoint(lat=90.0, lon=179.999)


class TestEquirectDistance:
    def test_ten_degrees_longitude_at_lat_45(self):
        assert equirect_distance((45.0, 0.0), (45.0, 10.0)) == pytest.approx(785.67, abs=0.01)

    def test_ten_degrees_latitude(self):
        assert equirect_distance((0.0, 0.0), (10.0, 0.0)) == pytest.approx(1111.1, abs=0.01)

    def test_coincident_points(self):
        assert equirect_distance((12.5, -40.0), (12.5, -40.0)) == 0.0

    def test_antimeridian_wrap(self):
        d = equirect_distance((0.0, 179.5), (0.0, -179.5))
        assert d == pytest.approx(111.11, abs=0.01)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = (rng.uniform(-90, 90), rng.uniform(-180, 180))
            b = (rng.uniform(-90, 90), rng.uniform(-180, 180))
            assert equirect_distance(a, b) == pytest.approx(equirect_distance(b, a))

    def test_near_metric_in_bounded_midlatitude_box(self):
        """Within a 10-degree box below 60 deg lat the planar approximation
        respects the triangle inequality to a fraction of a percent."""
        rng = np.random.default_rng(7)
        for _ in range(500):
            lat_c = rng.uniform(-55, 55)
            lon_c = rng.uniform(-170, 170)
            a, b, c = [
                (lat_c + rng.uniform(-5, 5), lon_c + rng.uniform(-5, 5)) for _ in range(3)
            ]
            direct = equirect_distance(a, c)
            via = equirect_distance(a, b) + equirect_distance(b, c)
            assert direct <= via * 1.002

    def test_not_a_metric_at_high_latitude(self):
        """The planar form badly overshoots long high-latitude legs; this
        pins the known failure so nobody assumes metric behavior globally."""
        a, b, c = (0.0, 0.0), (80.0, 0.0), (80.0, 90.0)
        direct = equirect_distance(a, c)
        via = equirect_distance(a, b) + equirect_distance(b, c)
        assert direct > via


class TestElevatedPoints:
    def test_row_major_order_with_cells_and_values(self):
        cells = [(2, 3), (0, 1), (2, 0)]
        values, mask = point_grids((4, 5), cells, value=7.5)
        pts = elevated_points(values, mask)
        assert [p.cell for p in pts] == [(0, 1), (2, 0), (2, 3)]
        assert all(p.value == 7.5 for p in pts)
        assert pts[0].lat == 0.0 and pts[0].lon == 1.0
        assert pts[2].lat == 2.0 and pts[2].lon == 3.0

    def test_invalid_cells_excluded(self):
        values, mask = point_grids((3, 3), [(0, 0), (1, 1), (2, 2)])
        mv = mask.valid_mask.copy()
        mv[1, 1] = False
        mask = ChangeGrid(values=mask.values, valid_mask=mv, registration=mask.registration)
        vv = values.valid_mask.copy()
        vv[2, 2] = False
        vals = values.values.copy()
        vals[2, 2] = np.nan
        values = ChangeGrid(values=vals, valid_mask=vv, registration=values.registration)
        pts = elevated_points(values, mask)
        assert [p.cell for p in pts] == [(0, 0)]

    def test_coordinates_equal_the_registration_per_cell(self):
        reg = GridRegistration(lat0=-79.875, lon0=-179.9, dlat=0.1, dlon=0.3, cell_km=11.1)
        rng = np.random.default_rng(2)
        vals = rng.normal(size=(40, 90))
        values = grid_of(vals, registration=reg)
        mask = grid_of(rng.random((40, 90)) < 0.3, registration=reg)
        pts = elevated_points(values, mask)
        expected = [
            GeoPoint(*reg.cell_center(r, c), cell=(r, c), value=float(vals[r, c]))
            for r, c in zip(*np.nonzero(mask.values))
        ]
        assert pts == expected
        assert all(type(v) is float for p in pts for v in (p.lat, p.lon, p.value))

    @pytest.mark.parametrize("lat0, lon0, bad", [
        (-70.0, 175.0, "cell (5, 20) lies at latitude -68.75, longitude 180.0"),
        (89.0, 0.0, "cell (5, 0) lies at latitude 90.25, longitude 0.0"),
    ])
    def test_coordinates_off_the_globe(self, lat0, lon0, bad):
        reg = GridRegistration(lat0=lat0, lon0=lon0, dlat=0.25, dlon=0.25, cell_km=27.8)
        values, mask = point_grids((10, 40), [(5, c) for c in range(40)], registration=reg)
        with pytest.raises(MalformedHeader, match=re.escape(bad)) as info:
            elevated_points(values, mask)
        assert "[-180, 180)" in info.value.hint

    def test_shape_mismatch(self):
        values, _ = point_grids((3, 3), [(0, 0)])
        _, mask = point_grids((3, 4), [(0, 0)])
        with pytest.raises(DimMismatch):
            elevated_points(values, mask)


class TestBuildAarGraph:
    def test_meridian_chain_keeps_consecutive_edges(self):
        cells = [(i, 0) for i in range(6)]
        values, mask = point_grids((8, 3), cells)
        pts = elevated_points(values, mask)
        g = build_aar_graph(pts, max_edge_km=250.0)
        got = {(e.u, e.v) for e in g.edges}
        assert got == {(i, i + 1) for i in range(5)}
        for e in g.edges:
            assert e.distance == pytest.approx(111.11, abs=0.01)

    def test_long_edges_pruned(self):
        # two pairs 40 degrees of longitude apart at the equator
        cells = [(0, 0), (1, 0), (0, 40), (1, 40)]
        values, mask = point_grids((3, 45), cells)
        pts = elevated_points(values, mask)
        g = build_aar_graph(pts, max_edge_km=250.0)
        for e in g.edges:
            assert {e.u, e.v} in ({0, 2}, {1, 3})

    def test_needs_two_points(self):
        values, mask = point_grids((3, 3), [(1, 1)])
        with pytest.raises(EmptySide):
            build_aar_graph(elevated_points(values, mask))

    def test_params_record_variant(self):
        values, mask = point_grids((3, 3), [(0, 0), (0, 1), (1, 0)])
        g = build_aar_graph(elevated_points(values, mask))
        assert g.params["variant"] == "aar"

    def test_edges_carry_the_threshold_rule(self):
        # A meridian chain whose values step 1, 2, 3, 4: edges at or above
        # the threshold weigh +1; the default threshold is the smallest value.
        vals, mask = np.zeros((6, 3)), np.zeros((6, 3))
        for i in range(4):
            vals[i, 0], mask[i, 0] = float(i + 1), 1.0
        pts = elevated_points(grid_of(vals), grid_of(mask))
        default = build_aar_graph(pts, max_edge_km=250.0)
        assert default.params["threshold"] == 1.0
        assert [e.weight for e in default.edges] == [1, 1, 1]
        raised = build_aar_graph(pts, max_edge_km=250.0, threshold=2.5)
        assert raised.params["threshold"] == 2.5
        assert [(e.u, e.v, e.weight) for e in raised.edges] == [(0, 1, -1), (1, 2, -1), (2, 3, 1)]


class TestComponents:
    def build_two_clusters(self):
        chain = [(i, 5) for i in range(21)]          # 20 deg along a meridian
        blob = [(44 + r, 30 + c) for r in range(3) for c in range(3)]
        values, mask = point_grids((50, 50), chain + blob)
        pts = elevated_points(values, mask)
        g = build_aar_graph(pts, max_edge_km=250.0)
        return g, pts

    def test_two_components_ordered_by_smallest_id(self):
        g, pts = self.build_two_clusters()
        comps = connected_components(g, pts)
        assert len(comps) == 2
        assert comps[0].node_ids == tuple(range(21))
        assert comps[1].node_ids == tuple(range(21, 30))

    def test_extent_and_retention(self):
        g, pts = self.build_two_clusters()
        comps = connected_components(g, pts, min_extent_km=2000.0)
        assert comps[0].extent_km == pytest.approx(2222.2, abs=0.01)
        assert comps[0].retained
        assert comps[1].extent_km < 400
        assert not comps[1].retained

    def test_point_columns_are_built_once_per_call(self, monkeypatch):
        g, pts = self.build_two_clusters()
        built = []

        def counting(points):
            built.append(len(points))
            return coords(points)

        coords = aar._coords
        monkeypatch.setattr(aar, "_coords", counting)
        assert len(connected_components(g, pts)) == 2
        assert built == [len(pts)]

    def test_retention_is_strictly_greater(self):
        g, pts = self.build_two_clusters()
        comps = connected_components(g, pts, min_extent_km=0.0)
        extent = comps[0].extent_km
        again = connected_components(g, pts, min_extent_km=extent)
        assert not again[0].retained

    def test_east_west_span_at_lat_45_rejected(self):
        reg = GridRegistration(lat0=45.0, lon0=0.0, dlat=1.0, dlon=1.0, cell_km=111.11)
        cells = [(0, c) for c in range(11)]          # 10 deg of longitude
        values, mask = point_grids((2, 12), cells, registration=reg)
        pts = elevated_points(values, mask)
        g = build_aar_graph(pts, max_edge_km=250.0)
        (comp,) = connected_components(g, pts, min_extent_km=2000.0)
        assert comp.extent_km == pytest.approx(785.67, abs=0.01)
        assert not comp.retained

    def test_singleton_extent_zero(self):
        pts = [GeoPoint(lat=0.0, lon=0.0), GeoPoint(lat=50.0, lon=50.0)]
        assert component_extent([0], aar._coords(pts)) == 0.0

    def test_empty_component_rejected(self):
        with pytest.raises(ValueError):
            component_extent([], aar._coords([]))

    def test_blocked_extent_equals_brute_force(self, monkeypatch):
        # Points near both poles and across the antimeridian; 61 of them
        # in blocks of 3 rows make 21 blocks, the last of a single row.
        rng = np.random.default_rng(4)
        pts = [
            GeoPoint(lat=float(la), lon=float(lo))
            for la, lo in zip(rng.uniform(-89, 89, 70), rng.uniform(-180, 180, 70))
        ]
        ids = list(range(3, 64))
        brute = max(
            equirect_distance((pts[i].lat, pts[i].lon), (pts[j].lat, pts[j].lon))
            for i in ids for j in ids
        )
        monkeypatch.setattr(aar, "EXTENT_BLOCK_PAIRS", 3 * len(ids))
        assert component_extent(ids, aar._coords(pts)) == brute

    def test_extent_memory_is_linear_in_points(self):
        # A dense 6,000 x 6,000 distance matrix would take 288 MB per
        # float64 temporary; the blocked reduction stays far below that.
        rng = np.random.default_rng(5)
        pts = [
            GeoPoint(lat=float(la), lon=float(lo))
            for la, lo in zip(rng.uniform(30, 60, 6000), rng.uniform(-20, 20, 6000))
        ]
        columns = aar._coords(pts)
        tracemalloc.start()
        try:
            component_extent(range(6000), columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_prune_leaves_few_pairs_on_a_corridor(self, monkeypatch):
        # 1,500 points along a wavy band 3 cells wide: only points near
        # the two ends can hold the maximum, so the blocked reduction sees
        # a small fraction of the 2.25 M ordered pairs.
        t = np.linspace(0.0, 1.0, 500)
        pts = [
            GeoPoint(lat=float(40.0 + 5.0 * np.sin(6.0 * x) + 0.25 * k), lon=float(-60.0 + 100.0 * x))
            for x in t for k in range(3)
        ]
        evaluated = []

        def counting(*args):
            out = equirect(*args)
            evaluated.append(np.size(out))
            return out

        equirect = aar._equirect_km
        monkeypatch.setattr(aar, "_equirect_km", counting)
        ids = range(len(pts))
        assert component_extent(ids, aar._coords(pts)) == oracles.blocked_extent(ids, pts)
        assert sum(evaluated) < 0.05 * len(pts) ** 2


def _region_points(rng, n, region):
    """``n`` valid points in one of the regions the extent prune must handle."""
    if region == "antimeridian":
        lats, lons = rng.uniform(-75, -60, n), rng.uniform(170, 190, n)
    elif region == "equator":
        lats, lons = rng.uniform(-3, 3, n), rng.uniform(-40, 40, n)
    elif region == "lattice":
        # Quarter-degree cells in a small window: many exactly tied distances.
        lats = -70 + 0.25 * rng.integers(0, 12, n)
        lons = 179 + 0.25 * rng.integers(0, 12, n)
    elif region == "pole":
        lats, lons = rng.uniform(88, 90, n), rng.uniform(-180, 180, n)
    elif region == "tiny":
        # A centimetre along one parallel: the longitude wrap rounds at the
        # scale of 360 degrees, far coarser than these gaps.
        lats, lons = np.full(n, -68.75), rng.uniform(0, 1e-7, n)
    else:
        lats, lons = rng.uniform(-90, 90, n), rng.uniform(-180, 180, n)
    lons = np.where(lons >= 180.0, lons - 360.0, lons)
    return [GeoPoint(lat=float(a), lon=float(b)) for a, b in zip(lats, lons)]


@settings(max_examples=150, deadline=None)
@given(
    n=st.one_of(st.integers(1, 3), st.integers(4, 300)),
    region=st.sampled_from(["antimeridian", "equator", "lattice", "pole", "tiny", "globe"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pruned_extent_equals_blocked_extent(n, region, seed):
    rng = np.random.default_rng(seed)
    pts = _region_points(rng, n + 5, region)
    ids = rng.permutation(n + 5)[:n].tolist()
    assert component_extent(ids, aar._coords(pts)) == oracles.blocked_extent(ids, pts)


class TestSnap:
    # (latitudes, longitudes) of three points, in id order.
    COLUMNS = (np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))

    def test_exact_hit(self):
        assert snap_to_node(self.COLUMNS, 1.0, 0.0) == 1

    def test_nearest_within_radius(self):
        assert snap_to_node(self.COLUMNS, 0.9, 0.05) == 1

    def test_tie_prefers_smallest_id(self):
        columns = (np.array([0.0, 0.0]), np.array([-1.0, 1.0]))
        assert snap_to_node(columns, 0.0, 0.0, snap_km=200.0) == 0

    def test_out_of_range(self):
        with pytest.raises(StationUnreachable, match="nearest is"):
            snap_to_node(self.COLUMNS, 30.0, 30.0, snap_km=150.0)

    def test_run_snaps_against_one_set_of_columns(self, monkeypatch):
        values, mask = TestRunAar().build_inputs()
        snapped, snap = [], aar.snap_to_node
        monkeypatch.setattr(aar, "snap_to_node", lambda *a: snapped.append(a[0]) or snap(*a))
        run_aar(values, mask, origins=[(12.1, 5.0), (14.1, 5.2), (15.0, 5.0)],
                station=(20.2, 5.3), m=9)
        assert len(snapped) == 4
        assert all(columns is snapped[0] for columns in snapped)


class TestStationPaths:
    def chain_setup(self, n=6, value=5.0):
        cells = [(i, 0) for i in range(n)]
        values, mask = point_grids((10, 10), cells, value=value, background=0.0)
        pts = elevated_points(values, mask)
        return build_aar_graph(pts, max_edge_km=250.0), values

    def test_single_path_chain_significance(self):
        g, values = self.chain_setup()
        (res,) = station_path_significance(
            g, values, origin_ids=[0], station_id=5, n_replicates=999, seed=3
        )
        assert res.path.nodes == (0, 1, 2, 3, 4, 5)
        assert res.observed == 1.0
        # only 6 of 100 grid cells reach the threshold, so the null
        # essentially never rebuilds a fully elevated 6-node path
        assert res.p_value == pytest.approx(1 / 1000)
        assert res.significant

    def test_threshold_override_can_zero_the_score(self):
        cells = [(i, 0) for i in range(6)]
        values, mask = point_grids((10, 10), cells, value=5.0, background=0.0)
        pts = elevated_points(values, mask)
        g = build_aar_graph(pts, max_edge_km=250.0, threshold=6.0)
        assert {e.weight for e in g.edges} == {-1}
        (res,) = station_path_significance(
            g, values, origin_ids=[0], station_id=5, n_replicates=49,
        )
        assert res.observed == 0.0
        assert res.p_value == 1.0

    def test_station_in_unreached_component_yields_no_paths(self):
        # row-major point order interleaves the two columns, so the
        # column-0 chain is the even ids
        cells = [(i, 0) for i in range(4)] + [(i, 8) for i in range(4)]
        values, mask = point_grids((6, 10), cells, background=0.0)
        pts = elevated_points(values, mask)
        g = build_aar_graph(pts, max_edge_km=250.0)
        assert pts[0].cell == (0, 0) and pts[2].cell == (1, 0) and pts[7].cell == (3, 8)
        results = station_path_significance(
            g, values, origin_ids=[0, 2], station_id=7, n_replicates=9
        )
        assert results == []

    def test_origin_equal_to_station_is_dropped(self):
        g, values = self.chain_setup()
        results = station_path_significance(
            g, values, origin_ids=[5], station_id=5, n_replicates=9
        )
        assert results == []

    def test_origins_required(self):
        g, values = self.chain_setup()
        with pytest.raises(ValueError):
            station_path_significance(g, values, origin_ids=[], station_id=5)

    def test_node_cells_come_from_the_graph(self):
        """A node with no grid cell is named by the null, not a raw TypeError."""
        values, _ = point_grids((10, 10), [(i, 0) for i in range(3)], background=0.0)
        pts = [GeoPoint(lat=float(i), lon=0.5, value=5.0) for i in range(3)]
        g = build_aar_graph(pts, max_edge_km=250.0)
        with pytest.raises(DimMismatch, match=r"graph node 0 at cell \(-1, -1\) lies outside"):
            station_path_significance(g, values, origin_ids=[0], station_id=2, n_replicates=9)

    def test_cap_stops_enumeration_before_scoring(self, monkeypatch):
        # A two-column ladder: many walks from each origin to the station.
        cells = [(i, c) for i in range(6) for c in range(2)]
        values, mask = point_grids((10, 10), cells, background=0.0)
        pts = elevated_points(values, mask)
        g = build_aar_graph(pts, max_edge_km=250.0)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return enumerate_walks(*args, **kwargs)

        def no_scoring(*args, **kwargs):
            pytest.fail("the null was built although the cap was passed")

        monkeypatch.setattr(aar, "enumerate_walks", counted)
        monkeypatch.setattr(aar.PermutationNull, "for_point_field", no_scoring)
        with pytest.raises(PathExplosion, match="cap of 3") as info:
            station_path_significance(
                g, values, origin_ids=list(range(11)), station_id=11,
                max_nodes=6, n_replicates=9, cap=3,
            )
        assert "--cap" in info.value.hint
        # One walk over all origins, looked up through aar's module global.
        assert len(calls) == 1 and calls[0][1] == list(range(11))


class TestRunAar:
    def build_inputs(self):
        chain = [(i, 5) for i in range(21)]
        blob = [(44 + r, 30 + c) for r in range(3) for c in range(3)]
        vals = np.full((50, 50), 0.1)
        mask = np.zeros((50, 50))
        for r, c in chain:
            vals[r, c] = 10.0
            mask[r, c] = 1.0
        for r, c in blob:
            vals[r, c] = 2.0
            mask[r, c] = 1.0
        return grid_of(vals), grid_of(mask)

    def test_end_to_end(self):
        values, mask = self.build_inputs()
        report = run_aar(
            values,
            mask,
            origins=[(12, 5), (14.1, 5.2), (44.5, 30.5), (80.0, -100.0)],
            station=(20.2, 5.3),
            m=999,
            seed=1,
        )
        assert len(report.points) == 30
        assert [c.retained for c in report.components] == [True, False]
        assert report.graph.params["threshold"] == 2.0
        assert report.points[report.station_id].cell == (20, 5)
        # blob origin falls outside the retained component; far origin
        # fails to snap at all
        assert [44.5, 30.5] in report.dropped_origins
        assert [80.0, -100.0] in report.dropped_origins
        assert len(report.results) == 2
        starts = {r.path.nodes[0] for r in report.results}
        assert {report.points[i].cell for i in starts} == {(12, 5), (14, 5)}
        for r in report.results:
            assert r.observed == 1.0
            assert r.path.nodes[-1] == report.station_id
            assert r.p_value == pytest.approx(0.001)
            assert r.significant and r.alpha == 0.005

    def test_all_origins_dropped_is_a_valid_outcome(self):
        values, mask = self.build_inputs()
        report = run_aar(values, mask, origins=[(44.5, 30.5)], station=(20.2, 5.3))
        assert report.results == []
        assert report.dropped_origins == [[44.5, 30.5]]
        assert report.points[report.station_id].cell == (20, 5)

    def test_deterministic_across_threads(self):
        values, mask = self.build_inputs()
        kw = dict(origins=[(12, 5)], station=(20.2, 5.3), m=199, seed=4)
        a = run_aar(values, mask, threads=1, **kw)
        b = run_aar(values, mask, threads=8, **kw)
        assert [r.p_value for r in a.results] == [r.p_value for r in b.results]
