from rqpipe import bands
from rqpipe.bands import row_bands


def test_fewest_equal_bands_under_the_budget(monkeypatch):
    for budget in (1, 4096, 1 << 20):
        monkeypatch.setattr(bands, "BAND_BYTES", budget)
        for rows in (1, 2, 7, 29, 135, 1080):
            for row_bytes in (1, 3, 1000, 15360, 1 << 20, 5 << 20):
                split = row_bands(rows, row_bytes)
                assert split[0][0] == 0 and split[-1][1] == rows
                assert all(end == first for (_, end), (first, _) in zip(split, split[1:]))
                sizes = [end - first for first, end in split]
                assert max(sizes) - min(sizes) <= 1 and min(sizes) >= 1
                per_band = max(1, budget // row_bytes)  # a band has at least one row
                assert max(sizes) <= per_band
                assert len(split) == -(-rows // per_band)  # no more bands than needed
