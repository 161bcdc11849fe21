package repro.perfbench

/** The benchmark's own test, at a small scale factor: both call sequences
  * run traced on two identical inputs, and the trace must
  *  - give every layer a span,
  *  - cover at least 95% of each traced iteration with layer self time,
  *  - repeat Spark job, itemset and collected-row counts exactly,
  * while every output still matches the reference.
  *
  * `Authenticity.spark_jobs` is reported but not required to repeat: with
  * adaptive query execution the number of jobs depends on which query stage
  * finishes first (24 or 26 at this scale), so it cannot back a count claim.
  */
object SelfTest {

  val Sf = 0.05
  val MinCoverage = 0.95

  private val common = Seq("recipedb.RecipeGen.recipes", "core.PatternMiner", "core.PatternFeatures",
    "cluster.Distance.pdist", "cluster.Hac.cluster", "fpm.FPTree.add", "fpm.FPTree.extract")

  private val cases = Seq(
    Workload("selftest-paper", Sf, 0.2, Vector(42L, 42L), paper = true) -> (common ++ Seq(
      "core.Authenticity", "geo.Regions.distanceMatrix", "cluster.TreeCompare.meanFowlkesMallows")),
    Workload("selftest-deep", Sf, 0.1, Vector(42L, 42L), paper = false) -> (common :+ "cluster.KMeans.elbow"),
  )

  private val repeatable = Seq("PatternMiner.spark_jobs", "PatternMiner.itemsets", "Authenticity.rows_collected")
  private val reported = Seq("Authenticity.spark_jobs")

  def run(o: Main.Options): Int = {
    val failures = cases.flatMap { case (w, layers) =>
      val run = Main.execute(w, o.copy(trace = true, seconds = 0))
      val tr = run.traced.get
      val names = tr.tracer.spans.map(_.name).toSet
      val perIter = tr.iters.indices.map(Main.layers(run, tr, _))
      val results = Seq(
        s"${w.name}: spans for ${layers.mkString(", ")}" -> layers.forall(names),
        s"${w.name}: trace.coverage >= $MinCoverage (${perIter.map(_("trace.coverage")).mkString(", ")})" ->
          perIter.forall(_("trace.coverage") >= MinCoverage),
        s"${w.name}: counts repeat (${repeatable.map(k => s"$k=${perIter.map(_(k)).mkString("/")}").mkString(", ")})" ->
          repeatable.forall(k => perIter.map(_(k)).distinct.size == 1),
        s"${w.name}: outputs match the reference" -> run.checks.forall(c => !c.failed && c.wrong == c.known),
        s"${w.name}: traced run equals the untraced run" -> Main.tracedMatches(run).isEmpty,
      )
      run.setup.spark.stop()
      reported.foreach(k => println(s"NOTE ${w.name}: $k=${perIter.map(_(k)).mkString("/")} (not required to repeat)"))
      results.foreach { case (what, ok) => println(s"${if (ok) "PASS" else "FAIL"} $what") }
      results.filterNot(_._2)
    }
    println(if (failures.isEmpty) "selftest passed" else s"selftest failed: ${failures.size} check(s)")
    if (failures.isEmpty) 0 else 1
  }
}
