"""Mutations of the bundled case-study files, each labeled accept/reject.

The loader must reject exactly the mutations that violate a model
invariant and accept everything else (negative prices, zero capacity,
redundant-but-consistent loss declarations, extra unlinked series).
A rejection names each value as the file writes it, so an int too large
for a float is never reported as ``inf``.
"""

import copy


def _set_link(doc, link_id, **changes):
    for link in doc["links"]:
        if link["id"] == link_id:
            link.update(changes)
            return
    raise KeyError(link_id)


def _del_link_key(doc, link_id, key):
    for link in doc["links"]:
        if link["id"] == link_id:
            del link[key]
            return
    raise KeyError(link_id)


# (name, mutator(config_doc) -> None, loads_ok)
CONFIG_MUTATIONS = [
    ("loss_at_one", lambda d: _set_link(d, "celtic", loss_fraction=1.0), False),
    ("loss_just_below_one", lambda d: _set_link(d, "celtic", loss_fraction=0.99), True),
    ("loss_negative", lambda d: _set_link(d, "celtic", loss_fraction=-0.1), False),
    ("capacity_negative", lambda d: _set_link(d, "moyle", capacity_mw=-5.0), False),
    ("capacity_zero", lambda d: _set_link(d, "moyle", capacity_mw=0.0), True),
    (
        "capacity_too_large_for_a_float",
        lambda d: _set_link(d, "moyle", capacity_mw=10**400),
        False,
    ),
    (
        "loss_too_large_for_a_float",
        lambda d: _set_link(
            d, "celtic", loss_fraction=10**400, length_km=575.0, loss_rate_per_100km=0.01
        ),
        False,
    ),
    (
        "length_too_large_for_a_float",
        lambda d: _set_link(d, "celtic", length_km=10**400, loss_rate_per_100km=0.01),
        False,
    ),
    ("capacity_missing", lambda d: _del_link_key(d, "moyle", "capacity_mw"), False),
    ("unknown_endpoint", lambda d: _set_link(d, "moyle", to="atlantis"), False),
    ("self_loop", lambda d: _set_link(d, "moyle", to="ireland"), False),
    (
        "duplicate_link_id",
        lambda d: d["links"].append(dict(d["links"][0])),
        False,
    ),
    (
        "duplicate_region_id",
        lambda d: d["regions"].append({"id": "ireland"}),
        False,
    ),
    (
        "empty_region_id",
        lambda d: d["regions"].append({"id": ""}),
        False,
    ),
    (
        "length_rate_consistent",
        lambda d: _set_link(d, "celtic", length_km=575.0, loss_rate_per_100km=0.01),
        True,
    ),
    (
        "length_rate_conflicting",
        lambda d: _set_link(d, "celtic", length_km=575.0, loss_rate_per_100km=0.02),
        False,
    ),
    (
        "loss_missing",
        lambda d: _del_link_key(d, "greenlink", "loss_fraction"),
        False,
    ),
    (
        "loss_from_length_only",
        lambda d: (
            _del_link_key(d, "celtic", "loss_fraction"),
            _set_link(d, "celtic", loss_rate_per_100km=0.01),
        ),
        True,
    ),
    (
        "length_rate_too_lossy",
        lambda d: (
            _del_link_key(d, "celtic", "loss_fraction"),
            _set_link(d, "celtic", length_km=20000.0, loss_rate_per_100km=0.01),
        ),
        False,
    ),
    ("unknown_link_key", lambda d: _set_link(d, "moyle", voltage_kv=250), False),
    (
        "unknown_top_key",
        lambda d: d.__setitem__("frequency_hz", 50),
        False,
    ),
    ("unknown_top_keys_of_two_types", lambda d: d.update({1: "a", "x": "b"}), False),
    ("capacity_an_int", lambda d: _set_link(d, "moyle", capacity_mw=500), True),
    (
        "links_a_mapping",
        lambda d: d.__setitem__("links", {link["id"]: link for link in d["links"]}),
        False,
    ),
    ("region_id_missing", lambda d: d["regions"].append({"name": "Atlantis"}), False),
    ("region_id_a_number", lambda d: d["regions"].append({"id": 7}), False),
    (
        "unknown_region_key",
        lambda d: d["regions"].append({"id": "atlantis", "population": 5}),
        False,
    ),
    (
        "unknown_region_keys_of_two_types",
        lambda d: d["regions"].append({"id": "atlantis", 1: 5, "x": 6}),
        False,
    ),
    ("link_to_a_number", lambda d: _set_link(d, "moyle", to=7), False),
    ("prices_csv_a_number", lambda d: d.__setitem__("prices_csv", 5), False),
    (
        "rate_without_length",
        lambda d: (
            _del_link_key(d, "celtic", "length_km"),
            _set_link(d, "celtic", loss_rate_per_100km=0.01),
        ),
        False,
    ),
]

# The mutations that break the config's format rather than a model invariant:
# the loader refuses each with a ParseError.
PARSE_ERRORS = {
    "capacity_missing",
    "loss_missing",
    "unknown_link_key",
    "unknown_top_key",
    "unknown_top_keys_of_two_types",
    "links_a_mapping",
    "region_id_missing",
    "region_id_a_number",
    "unknown_region_key",
    "unknown_region_keys_of_two_types",
    "link_to_a_number",
    "prices_csv_a_number",
    "rate_without_length",
}

_PRICE_ROW = "1,france,50.0"

# (name, mutator(csv_text) -> csv_text, loads_ok)
PRICE_MUTATIONS = [
    ("price_nan", lambda t: t.replace(_PRICE_ROW, "1,france,NaN"), False),
    ("price_inf", lambda t: t.replace(_PRICE_ROW, "1,france,inf"), False),
    ("price_word", lambda t: t.replace(_PRICE_ROW, "1,france,cheap"), False),
    ("price_negative", lambda t: t.replace(_PRICE_ROW, "1,france,-50.0"), True),
    ("duplicate_row", lambda t: t + _PRICE_ROW + "\n", False),
    (
        "out_of_order",
        lambda t: t.replace(_PRICE_ROW, "2,france,50.0\n1,france,55.0"),
        False,
    ),
    ("bad_header", lambda t: t.replace("timestep,", "step,"), False),
    ("fractional_timestep", lambda t: t.replace(_PRICE_ROW, "1.5,france,50.0"), False),
    ("negative_timestep", lambda t: t.replace(_PRICE_ROW, "-1,france,50.0"), False),
    ("missing_field", lambda t: t.replace(_PRICE_ROW, "1,france"), False),
    ("empty_region", lambda t: t.replace(_PRICE_ROW, "1,,50.0"), False),
    (
        "unknown_region_series",
        lambda t: t + "1,atlantis,40.0\n",
        False,
    ),
    (
        "extra_unlinked_series",
        lambda t: t + "1,northern_ireland,100.0\n",
        True,
    ),
    (
        "missing_linked_series",
        lambda t: t.replace(_PRICE_ROW + "\n", ""),
        False,
    ),
    (
        "horizon_mismatch",
        lambda t: t + "2,france,60.0\n",
        False,
    ),
]


def mutated_config(base_doc: dict, mutator) -> dict:
    doc = copy.deepcopy(base_doc)
    mutator(doc)
    return doc
