package repro.perfbench

import repro.cluster.Dendrogram
import repro.core.PatternMiner
import repro.recipedb.CuisineSpecs

/** The paper's quality numbers, read from one iteration's outcome. */
object Quality {

  /** The four cluster claims of §VII; true where the claim holds. */
  def claims(o: Outcome): Seq[(String, Boolean)] = {
    def coph(tree: String, a: String, b: String): Double = {
      val t: Dendrogram = o.trees(tree)
      t.copheneticOf(o.cuisines.indexOf(a), o.cuisines.indexOf(b))
    }
    def canadaNearFrance(tree: String) =
      coph(tree, "Canadian", "French") < coph(tree, "Canadian", "US")
    val india = coph("authenticity", "Indian Subcontinent", "Northern Africa")
    val eastAsia = Seq("cosine", "jaccard").forall { m =>
      val pairs = Seq(("Chinese and Mongolian", "Korean"), ("Chinese and Mongolian", "Japanese"),
        ("Korean", "Japanese")).map { case (a, b) => coph(m, a, b) }
      pairs.max <= coph(m, "Chinese and Mongolian", "UK")
    }
    Seq(
      "canadian-french.euclidean" -> canadaNearFrance("euclidean"),
      "canadian-french.authenticity" -> canadaNearFrance("authenticity"),
      "indian-northern-africa.authenticity" ->
        (india < coph("authenticity", "Indian Subcontinent", "Thai") &&
          india < coph("authenticity", "Indian Subcontinent", "Southeast Asian")),
      "east-asia.cosine-jaccard" -> eastAsia,
    )
  }

  /** Pearson r between measured and Table I pattern counts over the
    * cuisines, and the largest |measured − Table I| support over the named
    * patterns (a named pattern that was not mined counts as support 0).
    */
  def tableI(patterns: Seq[PatternMiner.CuisinePatterns]): (Double, Double) = {
    val byName = patterns.map(p => p.cuisine -> p).toMap
    val specs = CuisineSpecs.all.filter(s => byName.contains(s.name))
    val r = pearson(specs.map(s => byName(s.name).nPatterns.toDouble),
      specs.map(_.paperPatternCount.toDouble))
    val errs = for (s <- specs; np <- s.namedPatterns)
      yield math.abs(byName(s.name).supportOf(np.items).getOrElse(0.0) - np.paperSupport)
    (r, errs.max)
  }

  def pearson(x: Seq[Double], y: Seq[Double]): Double = {
    val mx = x.sum / x.size
    val my = y.sum / y.size
    val sxy = x.zip(y).map { case (a, b) => (a - mx) * (b - my) }.sum
    val sxx = x.map(a => (a - mx) * (a - mx)).sum
    val syy = y.map(b => (b - my) * (b - my)).sum
    sxy / math.sqrt(sxx * syy)
  }
}
