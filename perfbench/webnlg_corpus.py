"""Seeded WebNLG-shaped corpus generator for the benchmark.

The corpus mimics the shape of the WebNLG entity files the paper links
against: several categories; root entities with a name attribute plus
text, numeric and categorical attributes; foreign-key chains root ->
sub-entity -> sub-sub-entity; entities described by more than one record
(the same root in two entries with different triple sets, stored as
``Name`` and ``Name#2``); and several sentences per entry.

Sub-entities never cross categories. Every generated name is unique in
the whole corpus, so no sub-entity has identical content in two
categories. Such a shared sub-entity is stored once, under the first
category that mentions it, and vectorizing the second category then fails
(``VectorizeError: tuple ... belongs to relation ..., not ...``), which
makes ``fit``, ``train`` and ``pipeline`` exit 2. Cross-category sharing
belongs in the benchmark once the corpus loader keeps one record per
category.

The program sees only the XML text; the shape is returned beside it so the
benchmark can print every number with its input size and check that the
loader parsed what was generated.
"""

import numpy as np

SYLLABLES = (
    "ka", "lo", "mi", "ren", "tor", "va", "sel", "dun", "bri", "ost", "quin",
    "mar", "pel", "zan", "hol", "fer", "gri", "nal", "vek", "sor", "tam",
    "ul", "bex", "cor", "dra", "lin", "mun", "rav", "sil", "thu", "wen", "yor",
)

# Per category: root-name suffixes, two numeric and one categorical root
# attribute, the two links of the foreign-key chain with the categorical and
# numeric attribute of each sub-entity level, and the sentence templates.
# Every root also gets the name attribute "title" and a one-word "location"
# (categorical). The first chain link names a two-word sub-entity, so it is
# a text attribute; the second names a one-word one (categorical). Each
# further text attribute would add 256 columns to every foreign-key section
# and slow training several-fold.
CATEGORIES = (
    {
        "name": "Building",
        "suffixes": ("Tower", "Hall", "House", "Plaza", "Court"),
        "numeric": (("floorCount", 3, 90), ("completionYear", 1850, 2020)),
        "categorical": ("status", ("completed", "restored", "planned", "listed")),
        "chain": (("architect", "nationality", "birthYear"), ("employer", "city", "founded")),
        "templates": (
            "{name} stands in {location}.",
            "{name} was designed by {sub}.",
            "With {num0} floors, {name} dominates the skyline of {location}.",
            "{name} was completed in {num1}.",
            "The architect of {name} is {sub}.",
            "Visitors to {location} rarely miss {name}.",
        ),
    },
    {
        "name": "Airport",
        "suffixes": ("Airport", "Airfield", "Aerodrome"),
        "numeric": (("runwayLength", 800, 4500), ("elevation", 1, 2400)),
        "categorical": ("runwaySurface", ("asphalt", "concrete", "grass", "gravel")),
        "chain": (("operator", "headquarter", "fleetSize"), ("owner", "country", "established")),
        "templates": (
            "{name} serves the city of {location}.",
            "{name} is operated by {sub}.",
            "The runway of {name} is {num0} metres long.",
            "{name} lies {num1} metres above sea level.",
            "Flights from {location} leave from {name}.",
            "{sub} runs {name}.",
        ),
    },
    {
        "name": "Monument",
        "suffixes": ("Memorial", "Monument", "Obelisk", "Statue"),
        "numeric": (("height", 2, 120), ("dedicationYear", 1700, 2015)),
        "categorical": ("material", ("bronze", "granite", "marble", "limestone")),
        "chain": (("sculptor", "movement", "birthYear"), ("patron", "region", "founded")),
        "templates": (
            "{name} can be found in {location}.",
            "{name} was sculpted by {sub}.",
            "{name} was dedicated in {num1}.",
            "At {num0} metres, {name} towers over {location}.",
            "{sub} created {name}.",
            "Tourists in {location} often visit {name}.",
        ),
    },
)

SUB_VALUES = ("north", "south", "east", "west", "central", "coastal", "upland", "lowland")

SENTENCES = (2, 4)  # fewest and most sentences per entry
MULTI_RECORD_FRACTION = 0.2  # share of roots described by a second record
ROOTS_PER_SUB = 4  # roots sharing one first-level sub-entity


class _Names:
    """Unique pseudo-word names drawn from a seeded syllable vocabulary."""

    def __init__(self, rng):
        self.rng = rng
        self.used = set()

    def word(self):
        while True:
            n = int(self.rng.integers(2, 4))
            w = "".join(SYLLABLES[int(i)] for i in self.rng.integers(len(SYLLABLES), size=n))
            w = w.capitalize()
            if w not in self.used:
                self.used.add(w)
                return w


def _esc(text):
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def webnlg_corpus_xml(seed, categories, roots_per_category):
    """Build the corpus XML and its shape.

    Returns ``(xml_text, shape)`` where ``shape`` maps each category to its
    counts of entities, tuples (stored records), mentions and gold links.
    The shape depends only on the arguments, never on the seed, so runs
    with different seeds do the same amount of work. Entries get between
    ``SENTENCES[0]`` and ``SENTENCES[1]`` sentences, each count equally
    often; ``MULTI_RECORD_FRACTION`` of the roots get a second entry; every
    ``ROOTS_PER_SUB`` roots share one first-level sub-entity, and every two
    first-level sub-entities share one second-level sub-entity.
    """
    if not 1 <= categories <= len(CATEGORIES):
        raise ValueError(f"categories must lie in [1, {len(CATEGORIES)}]")
    rng = np.random.default_rng(seed)
    names = _Names(rng)
    places = [names.word() for _ in range(24)]
    parts = ["<benchmark>", " <entries>"]
    shape = {}
    eid = 0

    for spec in CATEGORIES[:categories]:
        cat = spec["name"]
        (fk1, attr1_cat, attr1_num), (fk2, attr2_cat, attr2_num) = spec["chain"]
        n_sub1 = max(1, roots_per_category // ROOTS_PER_SUB)
        n_sub2 = max(1, n_sub1 // 2)
        sub2 = [
            (names.word(), SUB_VALUES[int(rng.integers(len(SUB_VALUES)))],
             int(rng.integers(1800, 2000)))
            for _ in range(n_sub2)
        ]
        sub1 = [
            (f"{names.word()}_{names.word()}", SUB_VALUES[int(rng.integers(len(SUB_VALUES)))],
             int(rng.integers(1900, 1990)), sub2[i % n_sub2])
            for i in range(n_sub1)
        ]
        n_multi = round(MULTI_RECORD_FRACTION * roots_per_category)
        multi = set(rng.choice(roots_per_category, size=n_multi, replace=False).tolist())
        n_entries = roots_per_category + n_multi
        per_entry = np.resize(np.arange(SENTENCES[0], SENTENCES[1] + 1), n_entries)
        counts = rng.permutation(per_entry).tolist()

        for r in range(roots_per_category):
            word = names.word()
            suffix = spec["suffixes"][int(rng.integers(len(spec["suffixes"])))]
            root = f"{word}_{suffix}"
            surface = f"{word} {suffix}"
            location = places[int(rng.integers(len(places)))]
            nums = [int(rng.integers(lo, hi)) for _, lo, hi in spec["numeric"]]
            cat_attr, cat_values = spec["categorical"]
            cat_value = cat_values[int(rng.integers(len(cat_values)))]
            s1 = sub1[r % n_sub1]
            s2 = s1[3]
            full = [
                (root, "title", f"&quot;{surface}&quot;"),
                (root, "location", location),
                (root, spec["numeric"][0][0], str(nums[0])),
                (root, spec["numeric"][1][0], str(nums[1])),
                (root, cat_attr, cat_value),
                (root, fk1, s1[0]),
                (s1[0], attr1_cat, s1[1]),
                (s1[0], attr1_num, str(s1[2])),
                (s1[0], fk2, s2[0]),
                (s2[0], attr2_cat, s2[1]),
                (s2[0], attr2_num, str(s2[2])),
            ]
            variants = [full]
            if r in multi:
                # a second record of the same entity: a different triple set
                # without the foreign-key chain
                variants.append(full[:1] + full[2:5])
            for v, triples in enumerate(variants):
                eid += 1
                values = {"name": surface, "sub": s1[0].replace("_", " "),
                          "location": location, "num0": nums[0], "num1": nums[1]}
                parts.append(f'  <entry size="{len(triples)}" eid="Id{eid}" category="{cat}">')
                parts.append("   <modifiedtripleset>")
                for s, p, o in triples:
                    parts.append(f"    <mtriple>{s} | {p} | {o}</mtriple>")
                parts.append("   </modifiedtripleset>")
                count = counts.pop()
                templates = spec["templates"]
                if v == 1:
                    templates = tuple(t for t in templates if "{sub}" not in t)
                for j, t in enumerate(rng.permutation(len(templates))[:count]):
                    text = _esc(templates[int(t)].format(**values))
                    parts.append(f'   <lex lid="Id{j + 1}">{text}</lex>')
                parts.append("  </entry>")

        mentions = int(per_entry.sum())
        shape[cat] = {
            "entities": roots_per_category + n_sub1 + n_sub2,
            "tuples": n_entries + n_sub1 + n_sub2,
            "mentions": mentions,
            "links": mentions,
        }

    parts.append(" </entries>")
    parts.append("</benchmark>")
    return "\n".join(parts) + "\n", shape
