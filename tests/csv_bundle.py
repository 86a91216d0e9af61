"""A dataset bundle as CSV, the form an outside descriptor extractor supplies."""

import os

from gmkit.data import load_dataset, save_matrix


def write_csv_bundle(directory, dataset):
    """Write ``dataset`` as enrolled.csv and impostors.csv through
    ``save_matrix``, and genuine.csv with a header line and an integer
    identity column before the same shortest round-trip coordinates."""
    os.makedirs(directory, exist_ok=True)
    save_matrix(os.path.join(directory, "enrolled.csv"), dataset.enrolled.data.T)
    with open(os.path.join(directory, "genuine.csv"), "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# identity column + d={dataset.enrolled.dim} coordinates, n={len(dataset.genuine)}\n")
        fh.writelines(
            f"{idx}," + ",".join(map(repr, row)) + "\n"
            for idx, row in zip(dataset.genuine_ids.tolist(), dataset.genuine.tolist())
        )
    save_matrix(os.path.join(directory, "impostors.csv"), dataset.impostors)


def convert_to_csv(directory):
    """Replace the ``.npy`` bundle in ``directory`` by the same matrices as CSV."""
    dataset = load_dataset(str(directory))
    for name in ("enrolled", "genuine", "impostors"):
        os.remove(os.path.join(directory, name + ".npy"))
    write_csv_bundle(directory, dataset)
