import gc
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from contagion_lab.errors import (
    DuplicateKey,
    EmptyResult,
    MalformedRow,
    MissingColumn,
    YearAbsent,
)
from contagion_lab.ingest import (
    BankPanel,
    BankRecord,
    assign_treatment,
    balanced_panel,
    load_panel,
    panel_csv_text,
)


def csv_stream(text: str) -> io.StringIO:
    return io.StringIO(text)


class TestLoadPanel:
    def test_basic_load(self):
        panel = load_panel(csv_stream(
            "bank_id,year,total_assets\nA,2018,100\nB,2018,200\nB,2021,210\n"
        ))
        assert len(panel) == 3
        assert panel.years == (2018, 2021)
        assert panel.records[0] == BankRecord("A", 2018, 100.0)

    def test_duplicate_bank_year(self):
        with pytest.raises(DuplicateKey):
            load_panel(csv_stream(
                "bank_id,year,total_assets\nA,2018,100\nA,2018,101\n"
            ))

    def test_negative_assets_names_row(self):
        with pytest.raises(MalformedRow, match="row 3"):
            load_panel(csv_stream(
                "bank_id,year,total_assets\nA,2018,100\nB,2018,-5\n"
            ))

    def test_zero_assets_rejected_like_reconstruction(self):
        # reconstruction needs strictly positive assets, so ingest refuses a zero
        with pytest.raises(MalformedRow, match="row 3.*> 0"):
            load_panel(csv_stream(
                "bank_id,year,total_assets\nA,2018,100\nB,2018,0\nC,2018,7\n"
            ))
        with pytest.raises(MalformedRow, match="'B' year 2018"):
            BankPanel(records=(BankRecord("A", 2018, 1.0), BankRecord("B", 2018, 0.0)))

    def test_missing_assets_rejected(self):
        with pytest.raises(MalformedRow, match="missing total_assets"):
            load_panel(csv_stream("bank_id,year,total_assets\nA,2018,\n"))

    def test_unparseable_assets(self):
        with pytest.raises(MalformedRow, match="unparseable"):
            load_panel(csv_stream("bank_id,year,total_assets\nA,2018,abc\n"))

    def test_missing_column(self):
        with pytest.raises(MissingColumn):
            load_panel(csv_stream("bank_id,year\nA,2018\n"))

    def test_extra_columns_are_ignored(self):
        panel = load_panel(csv_stream("bank_id,year,total_assets,country\nX1,2018,5.5,DE\n"))
        assert panel.records == (BankRecord("X1", 2018, 5.5),)

    def test_a_path_source_is_closed(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("bank_id,year,total_assets\nA,2018,1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert len(load_panel(path)) == 1
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_bytes_input(self):
        panel = load_panel(b"bank_id,year,total_assets\nA,2018,1\n")
        assert len(panel) == 1

    def test_custom_delimiter(self):
        panel = load_panel(csv_stream("bank_id;year;total_assets\nA;2018;1\n"),
                           delimiter=";")
        assert len(panel) == 1

    def test_row_order_preserved(self):
        panel = load_panel(csv_stream(
            "bank_id,year,total_assets\nZ,2021,1\nA,2018,2\nM,2018,3\n"
        ))
        assert [r.bank_id for r in panel.records] == ["Z", "A", "M"]

    def test_roundtrip_through_writer(self):
        records = (BankRecord("A", 2018, 1.2345678901234567),
                   BankRecord("A", 2021, 2.0))
        text = panel_csv_text(records)
        again = load_panel(csv_stream(text))
        assert again.records == records


def panel_of(*triples) -> BankPanel:
    return BankPanel(records=tuple(BankRecord(b, y, a) for b, y, a in triples))


class TestBalancedPanel:
    def test_keeps_full_span_banks_only(self):
        panel = panel_of(("A", 2018, 1), ("A", 2021, 1), ("A", 2023, 1),
                         ("B", 2018, 1), ("B", 2023, 1))
        out = balanced_panel(panel)
        assert out.bank_ids() == ("A",)
        assert out.years == (2018, 2021, 2023)

    def test_identity_when_all_banks_everywhere(self):
        panel = panel_of(("A", 2018, 1), ("B", 2018, 2),
                         ("A", 2021, 1), ("B", 2021, 2))
        assert balanced_panel(panel) == panel

    def test_single_year_is_identity(self):
        panel = panel_of(("A", 2018, 1), ("B", 2018, 2))
        assert balanced_panel(panel) == panel

    def test_empty_result(self):
        panel = panel_of(("A", 2018, 1), ("B", 2021, 1))
        with pytest.raises(EmptyResult):
            balanced_panel(panel)

    def test_empty_panel(self):
        with pytest.raises(EmptyResult):
            balanced_panel(BankPanel(records=()))

    @given(st.lists(
        st.tuples(st.sampled_from("ABCDE"), st.sampled_from([2018, 2021, 2023])),
        min_size=1, max_size=15, unique=True,
    ))
    def test_idempotent_and_subset(self, keys):
        panel = BankPanel(records=tuple(
            BankRecord(b, y, 1.0 + i) for i, (b, y) in enumerate(keys)
        ))
        try:
            once = balanced_panel(panel)
        except EmptyResult:
            return
        assert balanced_panel(once) == once
        assert set(once.bank_ids()) <= set(panel.bank_ids())
        # per-year record counts equal across years
        counts = {y: len(once.year_slice(y)) for y in once.years}
        assert len(set(counts.values())) == 1


def quantile_type7(values, q):
    """Independent oracle: linear interpolation between order statistics."""
    xs = sorted(values)
    h = (len(xs) - 1) * q
    lo = int(np.floor(h))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


class TestAssignTreatment:
    def test_top_quartile_of_four(self):
        # oracle: type-7 quantile of {1,2,3,4} at 0.75 is 3.25; only 4 exceeds it
        panel = panel_of(("A", 2018, 1), ("B", 2018, 2), ("C", 2018, 3), ("D", 2018, 4))
        assert quantile_type7([1, 2, 3, 4], 0.75) == 3.25
        t = assign_treatment(panel, 2018, 0.75)
        assert t.treated == {"A": False, "B": False, "C": False, "D": True}

    def test_median_split(self):
        panel = panel_of(("A", 2018, 1), ("B", 2018, 2), ("C", 2018, 3), ("D", 2018, 4))
        assert quantile_type7([1, 2, 3, 4], 0.5) == 2.5
        t = assign_treatment(panel, 2018, 0.5)
        assert t.treated_ids() == ("C", "D")

    def test_all_equal_assets_none_treated(self):
        panel = panel_of(("A", 2018, 7), ("B", 2018, 7), ("C", 2018, 7))
        t = assign_treatment(panel, 2018, 0.75)
        assert t.treated_ids() == ()

    def test_year_absent(self):
        panel = panel_of(("A", 2018, 1))
        with pytest.raises(YearAbsent):
            assign_treatment(panel, 1999, 0.75)

    def test_bad_quantile(self):
        panel = panel_of(("A", 2018, 1))
        with pytest.raises(ValueError):
            assign_treatment(panel, 2018, 1.0)

    @given(st.permutations(list(range(8))), st.sampled_from([0.25, 0.5, 0.75, 0.9]))
    def test_row_order_invariance(self, order, q):
        assets = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0]
        ids = [f"B{i}" for i in range(8)]
        base = panel_of(*[(ids[i], 2018, assets[i]) for i in range(8)])
        shuffled = panel_of(*[(ids[i], 2018, assets[i]) for i in order])
        assert assign_treatment(base, 2018, q).treated == \
            assign_treatment(shuffled, 2018, q).treated
