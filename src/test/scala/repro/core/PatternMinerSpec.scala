package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.fpm.{FreqItemset, Itemsets}
import repro.recipedb.{CuisineSpecs, RecipeGen}

class PatternMinerSpec extends SparkSpec {

  import spark.implicits._

  private lazy val recipes = RecipeGen.recipes(spark, 0.01).cache()
  private lazy val mined = PatternMiner.minePerCuisine(recipes)

  test("one result per cuisine, sorted by cuisine name") {
    assert(mined.map(_.cuisine) == CuisineSpecs.all.map(_.name).sorted)
  }

  test("nRecipes per cuisine matches the generator") {
    mined.foreach { cp =>
      assert(cp.nRecipes == CuisineSpecs.byName(cp.cuisine).nAt(0.01), cp.cuisine)
    }
  }

  test("per-cuisine mining equals MLlib FP-Growth, items and ingredients") {
    // MLlib mines one count below the threshold and the exact predicate
    // freq / n >= s decides, so no threshold rounding is shared with ours.
    import org.apache.spark.ml.fpm.{FPGrowth => MLFPGrowth}
    val s = PatternMiner.PaperMinSupport
    Seq("items", "ingredients").foreach { view =>
      val ours = (if (view == "items") mined else PatternMiner.minePerCuisine(recipes, itemsCol = view))
        .map(cp => cp.cuisine -> cp).toMap
      assert(ours.keySet == CuisineSpecs.all.map(_.name).toSet, view)
      ours.foreach { case (c, cp) =>
        val tx = recipes.filter($"cuisine" === c).select(view).toDF("items")
        val n = cp.nRecipes
        val theirs = new MLFPGrowth().setItemsCol("items").setNumPartitions(1)
          .setMinSupport(math.max(0.0, s - 1.0 / n)).fit(tx)
          .freqItemsets.as[(Seq[String], Long)].collect().toSeq
          .collect { case (items, freq) if freq.toDouble / n >= s => FreqItemset(items.sorted, freq, freq.toDouble / n) }
        assert(theirs.nonEmpty, s"$view $c")
        val d = Itemsets.diff(cp.itemsets, theirs)
        assert(d.isEmpty, s"$view $c: ${d.take(5)}")
      }
    }
  }

  test("an empty recipes DataFrame is rejected with a clear message") {
    val e = intercept[IllegalArgumentException](PatternMiner.minePerCuisine(recipes.limit(0)))
    assert(e.getMessage.contains("recipes DataFrame is empty"))
  }

  test("singleton pattern supports are oracle-checked against DuckDB") {
    val c = "Japanese"
    val cp = mined.find(_.cuisine == c).get
    val singles = cp.itemsets.filter(_.items.size == 1)
    assert(singles.nonEmpty)
    val ex = RecipeGen.explodedItems(recipes).filter($"cuisine" === c)
    val got = ex.groupBy("item").agg(count(lit(1)).as("freq"))
      .filter($"freq" >= math.ceil(cp.nRecipes * 0.2).toLong)
    Oracle.assertEquivalent(
      got,
      s"SELECT item, count(*) AS freq FROM ex GROUP BY item " +
        s"HAVING count(*) >= ${math.ceil(cp.nRecipes * 0.2).toLong}",
      "ex" -> ex,
    )
    val oracleSingles = got.collect().map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(singles.map(fi => fi.items.head -> fi.freq).toMap == oracleSingles)
  }

  test("all mined supports meet the threshold") {
    mined.foreach { cp =>
      cp.itemsets.foreach(fi => assert(fi.support >= 0.2 - 1e-12, s"${cp.cuisine} $fi"))
    }
  }

  test("supportOf looks up by set regardless of order") {
    val cp = mined.find(_.itemsets.exists(_.items.size >= 2)).get
    val fi = cp.itemsets.find(_.items.size >= 2).get
    assert(cp.supportOf(fi.items.reverse.toSet).contains(fi.support))
    assert(cp.supportOf(Set("no-such-item-xyz")).isEmpty)
  }

  test("mining respects the itemsCol argument (ingredients-only mining)") {
    val ingOnly = PatternMiner.minePerCuisine(
      recipes.filter($"cuisine" === "Greek"), itemsCol = "ingredients")
    val items = ingOnly.head.itemsets.flatMap(_.items).toSet
    assert(items.nonEmpty)
    items.foreach(i => assert(repro.recipedb.Items.category(i) == repro.recipedb.Items.Ingredient, i))
  }

  test("a custom support threshold is honoured") {
    val strict = PatternMiner.minePerCuisine(
      recipes.filter($"cuisine" === "Greek"), minSupport = 0.5)
    val loose = mined.find(_.cuisine == "Greek").get
    assert(strict.head.nPatterns < loose.nPatterns)
    strict.head.itemsets.foreach(fi => assert(fi.support >= 0.5))
  }
}
