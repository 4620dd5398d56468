"""
Extracting sentence templates from constituency parses
======================================================

A template is the sequence of constituent labels read off a parse tree
at a fixed depth: a coarse sketch of sentence structure that a prompt
can ask the model to follow.
"""

from promptmt import KnowledgeBundle, SentencePair, assemble, extract_template, parse_ptb

tree = parse_ptb(
    "(S (NP (DT the) (NN cat)) (VP (VBD sat) (PP (IN on) (NP (DT the) (NN mat)))))"
)
print("yield:", " ".join(tree.words()))
print("height:", tree.height())

# shallow depths keep only the coarse shape; deeper ones refine it until
# the template bottoms out at the preterminals
for depth in [1, 2, 3, 4]:
    print(f"depth {depth}:", " ".join(extract_template(tree, depth)))

# a template reaches the model as a [Template] block, the same labels on
# both sides, which is how build-dataset --trees builds it
pair = SentencePair("the cat sat".split(), "die katze sass".split(), id=0)
labels = tuple(extract_template(parse_ptb("(S (NP (DT the) (NN cat)) (VP (VBD sat)))"), 1))
example = assemble(pair, KnowledgeBundle(template=(labels, labels)))
print("input: ", " ".join(example.input_tokens))
print("output:", " ".join(example.output_tokens))
